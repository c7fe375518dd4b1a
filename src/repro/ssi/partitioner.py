"""SSI-side partitioning strategies (steps 5 and 9 of Fig. 2).

The SSI cannot decrypt anything, so the only information a partitioner may
use is (a) item order/count and (b) the cleartext ``group_tag`` when the
protocol provides one:

* :class:`RandomPartitioner` — S_Agg & basic protocol: "the Covering
  Result being fully encrypted, SSI sees partitions as uninterpreted
  chunks of bytes" — tuples from the same group land in random partitions.
* :class:`TagPartitioner` — noise-based & ED_Hist: "SSI groups tup with
  the same E(AG)" — one partition per distinct tag, optionally splitting
  oversized tag groups.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.core.messages import EncryptedPartial, EncryptedTuple, Partition
from repro.exceptions import ConfigurationError

Item = EncryptedTuple | EncryptedPartial


class RandomPartitioner:
    """Shuffle items and cut into fixed-size chunks."""

    def __init__(self, partition_size: int, rng: random.Random) -> None:
        if partition_size < 1:
            raise ConfigurationError("partition_size must be >= 1")
        self.partition_size = partition_size
        self._rng = rng
        self._next_id = 0

    def partition(self, items: Sequence[Item]) -> list[Partition]:
        shuffled = list(items)
        self._rng.shuffle(shuffled)
        partitions = []
        for start in range(0, len(shuffled), self.partition_size):
            chunk = tuple(shuffled[start : start + self.partition_size])
            partitions.append(Partition(self._next_id, chunk))
            self._next_id += 1
        return partitions


class TagPartitioner:
    """Group items by their cleartext tag.

    ``max_partition_size`` splits very popular tags across several
    partitions (they will be re-merged by the next aggregation step).  It
    only touches *which* encrypted items travel together — never their
    content.
    """

    def __init__(self, max_partition_size: int | None = None) -> None:
        if max_partition_size is not None and max_partition_size < 1:
            raise ConfigurationError("max_partition_size must be >= 1")
        self.max_partition_size = max_partition_size
        self._next_id = 0

    def partition(self, items: Sequence[Item]) -> list[Partition]:
        by_tag: dict[bytes, list[Item]] = {}
        for item in items:
            if item.group_tag is None:
                raise ConfigurationError(
                    "TagPartitioner received untagged items; use RandomPartitioner"
                )
            by_tag.setdefault(item.group_tag, []).append(item)

        partitions: list[Partition] = []
        for tag in sorted(by_tag):  # deterministic order
            group = by_tag[tag]
            size = self.max_partition_size or len(group)
            for start in range(0, len(group), size):
                chunk = tuple(group[start : start + size])
                partitions.append(Partition(self._next_id, chunk))
                self._next_id += 1
        return partitions
