"""Nearly equi-depth histograms over the grouping-attribute domain.

ED_Hist (§4.4) requires every TDS to share "a decomposition of the AG
domain into buckets holding nearly the same number of true tuples".  The
distribution is discovered once (a COUNT ... GROUP BY AG run with one of
the other protocols — see :mod:`repro.protocols.discovery`) and refreshed
from time to time.

:class:`EquiDepthHistogram` implements the decomposition and the
``value → bucket`` mapping; bucket identities travel as keyed hashes
(:class:`repro.crypto.hashing.BucketHasher`) so the SSI sees only a nearly
uniform distribution of opaque tags.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.core.codec import encode
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class Bucket:
    """One histogram bucket: an explicit set of domain values.

    Buckets are *value-enumerated* rather than range-based because the
    grouping attribute may be categorical (districts, diagnosis codes...);
    equi-depth is achieved on frequencies, not on domain order.
    """

    bucket_id: int
    values: frozenset
    weight: int  # total true-tuple frequency covered by this bucket

    def __contains__(self, value: Any) -> bool:
        return value in self.values


class EquiDepthHistogram:
    """Greedy nearly-equi-depth decomposition of a frequency table.

    >>> hist = EquiDepthHistogram.from_distribution(
    ...     {"a": 50, "b": 30, "c": 10, "d": 10}, num_buckets=2)
    >>> hist.bucket_count()
    2
    >>> hist.bucket_of("a") != hist.bucket_of("c")
    True
    """

    def __init__(self, buckets: list[Bucket]) -> None:
        if not buckets:
            raise ConfigurationError("a histogram needs at least one bucket")
        self._buckets = list(buckets)
        self._value_to_bucket: dict[Any, int] = {}
        for bucket in buckets:
            for value in bucket.values:
                if value in self._value_to_bucket:
                    raise ConfigurationError(
                        f"value {value!r} appears in two buckets"
                    )
                self._value_to_bucket[value] = bucket.bucket_id

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_distribution(
        cls, frequencies: Mapping[Any, int], num_buckets: int
    ) -> "EquiDepthHistogram":
        """Build from a ``value → count`` table using the classic greedy
        first-fit-decreasing heuristic: place each value (heaviest first)
        into the currently lightest bucket.

        The number of buckets is capped by the number of distinct values
        (a bucket cannot be empty)."""
        if num_buckets < 1:
            raise ConfigurationError("num_buckets must be >= 1")
        if not frequencies:
            raise ConfigurationError("cannot build a histogram from no data")
        num_buckets = min(num_buckets, len(frequencies))
        loads = [0] * num_buckets
        members: list[list[Any]] = [[] for __ in range(num_buckets)]
        ordered = sorted(
            frequencies.items(), key=lambda kv: (-kv[1], str(kv[0]))
        )
        for value, count in ordered:
            lightest = min(range(num_buckets), key=lambda i: loads[i])
            loads[lightest] += count
            members[lightest].append(value)
        buckets = [
            Bucket(bucket_id=i, values=frozenset(vals), weight=loads[i])
            for i, vals in enumerate(members)
        ]
        return cls(buckets)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def bucket_of(self, value: Any) -> int:
        """The bucket id of *value*; unseen values go to the bucket whose id
        is a stable hash of the value (they were absent from the discovered
        distribution, so any deterministic assignment preserves
        correctness).  Stable across processes: every TDS, in whichever
        fleet shard it runs, must tag the same value alike — so a digest
        of the value's canonical encoding, not ``hash()``, which is salted
        per process."""
        bucket_id = self._value_to_bucket.get(value)
        if bucket_id is not None:
            return bucket_id
        digest = hashlib.blake2b(encode(value), digest_size=8).digest()
        return int.from_bytes(digest, "big") % len(self._buckets)

    def bucket(self, bucket_id: int) -> Bucket:
        return self._buckets[bucket_id]

    def values(self) -> list[Any]:
        """The grouping values of the discovered distribution — also the
        noise protocols' domain (§4.3) — in an order every process
        agrees on."""
        return sorted(self._value_to_bucket, key=lambda v: (str(type(v)), str(v)))

    def bucket_count(self) -> int:
        return len(self._buckets)

    def buckets(self) -> list[Bucket]:
        return list(self._buckets)

    def collision_factor(self) -> float:
        """The paper's ``h``: average number of distinct grouping values per
        bucket (G/M).  h=1 degenerates to Det_Enc; h=G is a single bucket."""
        total_values = len(self._value_to_bucket)
        return total_values / len(self._buckets)

    def skew(self) -> float:
        """max/mean bucket weight — 1.0 is perfectly equi-depth."""
        weights = [b.weight for b in self._buckets]
        mean = sum(weights) / len(weights)
        if mean == 0:
            return 1.0
        return max(weights) / mean


def frequencies_from_values(values: Iterable[Any]) -> dict[Any, int]:
    """Frequency table helper for building histograms from raw samples."""
    table: dict[Any, int] = {}
    for value in values:
        table[value] = table.get(value, 0) + 1
    return table
