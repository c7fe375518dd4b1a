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

Both take the covering result (or a round's partials) as one
:class:`EncryptedTupleBlock`, cut lists of item indices over it and
gather each partition's block with one join — no object per item.  The
coordinator numbers the partitions.
"""

from __future__ import annotations

import random

from repro.core.messages import EncryptedTupleBlock
from repro.exceptions import ConfigurationError


class RandomPartitioner:
    """Shuffle items and cut into fixed-size chunks."""

    def __init__(self, partition_size: int, rng: random.Random) -> None:
        if partition_size < 1:
            raise ConfigurationError("partition_size must be >= 1")
        self.partition_size = partition_size
        self._rng = rng

    def partition(self, block: EncryptedTupleBlock) -> list[EncryptedTupleBlock]:
        # A shuffle of the indices makes the draws a shuffle of the
        # items would: the partitions are that shuffle's chunks.
        order = list(range(len(block)))
        self._rng.shuffle(order)
        size = self.partition_size
        return [
            block.gather(order[start : start + size])
            for start in range(0, len(order), size)
        ]


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

    def partition(self, block: EncryptedTupleBlock) -> list[EncryptedTupleBlock]:
        by_tag: dict[bytes, list[int]] = {}
        for index, tag in enumerate(block.tags):
            if tag is None:
                raise ConfigurationError(
                    "TagPartitioner received untagged items; use RandomPartitioner"
                )
            by_tag.setdefault(tag, []).append(index)

        partitions: list[EncryptedTupleBlock] = []
        for tag in sorted(by_tag):  # deterministic order
            group = by_tag[tag]
            size = self.max_partition_size or len(group)
            for start in range(0, len(group), size):
                partitions.append(block.gather(group[start : start + size]))
        return partitions
