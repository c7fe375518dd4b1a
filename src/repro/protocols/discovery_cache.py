"""Cross-query cache for §4.3/§4.4 discovery artifacts.

The paper is explicit that discovery "needs to be done only once and
refreshed from time to time" (§4.4) — yet without a cache every C_Noise
or ED_Hist query re-runs the full S_Agg COUNT GROUP BY bootstrap.  This
module is that "once": a per-process cache keyed by **(dataset epoch,
table, column, artifact, parameters)** so overlapping and repeated
queries share one discovery run per epoch.

* The **epoch** is the refresh handle.  :meth:`DiscoveryCache.bump_epoch`
  invalidates everything at once (the "refreshed from time to time"
  event — e.g. after enough TDSs joined or churned that the distribution
  is stale); stale entries can never be served because the epoch is part
  of the key and old-epoch entries are dropped on the bump.
* The **artifact** field keeps protocols from aliasing each other:
  ED_Hist's equi-depth histogram and C_Noise's domain list for the same
  column live under distinct keys (with histogram parameters — the
  bucket count — in the key too).  Both *derive* from the one shared
  frequency table, so the expensive S_Agg run happens once per
  (epoch, table, column) regardless of which protocols consume it.

Privacy argument (also in DESIGN.md §10): the cached artifacts are the
frequency table, domain list and bucket map of the grouping attribute —
exactly the data the paper's discovery phase already computes, returns
to the querier/provider, and distributes to every TDS for each query.
Caching changes *when* that computation happens, never *what* is
revealed or to whom: the cache lives querier/provider-side, and the SSI
only ever sees the same S_Agg wire traffic as before (just less of it).

Trust boundary: protocol role (querier/TDS side).  Plaintext
distributions never transit ssi-role modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, TypeVar

from repro.protocols.deployment import Deployment
from repro.protocols.discovery import discover_distribution
from repro.tds.histogram import EquiDepthHistogram

_T = TypeVar("_T")


@dataclass(frozen=True)
class DiscoveryKey:
    """Identity of one cached discovery artifact.

    ``artifact`` names the derived shape ("distribution", "domain",
    "histogram"); ``params`` carries artifact parameters that change the
    result (the histogram's bucket count) so e.g. 2-bucket and 4-bucket
    histograms of the same column never alias."""

    epoch: int
    table: str
    column: str
    artifact: str
    params: tuple = ()


class DiscoveryCache:
    """Per-epoch memo of discovery artifacts, with hit/miss counters."""

    def __init__(self) -> None:
        self._epoch = 0
        self._entries: dict[DiscoveryKey, Any] = {}
        #: lifetime totals
        self.hits = 0
        self.misses = 0

    @property
    def epoch(self) -> int:
        return self._epoch

    def __len__(self) -> int:
        return len(self._entries)

    def bump_epoch(self) -> int:
        """Invalidate every cached artifact: the dataset moved on (TDS
        churn, refresh interval elapsed).  Returns the new epoch."""
        self._epoch += 1
        self._entries.clear()
        return self._epoch

    def key(self, table: str, column: str, artifact: str, params: tuple = ()) -> DiscoveryKey:
        """A key bound to the cache's *current* epoch."""
        return DiscoveryKey(self._epoch, table, column, artifact, params)

    def get_or_compute(self, key: DiscoveryKey, compute: Callable[[], _T]) -> _T:
        """Serve *key* from cache, or run *compute* once and remember it.
        Keys from a bumped (stale) epoch never hit: the epoch is part of
        the key and the bump dropped their entries."""
        if key in self._entries:
            self.hits += 1
            return self._entries[key]
        self.misses += 1
        value = self._entries[key] = compute()
        return value


def cached_distribution(
    cache: DiscoveryCache,
    deployment: Deployment,
    table: str,
    column: str,
    worker_fraction: float = 1.0,
    subject: str = "discovery",
    roles: tuple[str, ...] = ("public",),
) -> dict[Any, int]:
    """:func:`~repro.protocols.discovery.discover_distribution`, once per
    (epoch, table, column).  Returns a copy — callers may mutate theirs
    without corrupting what later queries are served."""
    key = cache.key(table, column, "distribution")
    value = cache.get_or_compute(
        key,
        lambda: discover_distribution(
            deployment, table, column, worker_fraction, subject, roles
        ),
    )
    return dict(value)


def cached_domain(
    cache: DiscoveryCache,
    deployment: Deployment,
    table: str,
    column: str,
    worker_fraction: float = 1.0,
    subject: str = "discovery",
    roles: tuple[str, ...] = ("public",),
) -> list[Any]:
    """C_Noise's domain list, derived from the shared cached frequency
    table (no second S_Agg run when the histogram already discovered
    this column this epoch) and cached under its own key."""
    key = cache.key(table, column, "domain")

    def compute() -> list[Any]:
        distribution = cached_distribution(
            cache, deployment, table, column, worker_fraction, subject, roles
        )
        return sorted(distribution, key=lambda v: (str(type(v)), str(v)))

    return list(cache.get_or_compute(key, compute))


def cached_histogram(
    cache: DiscoveryCache,
    deployment: Deployment,
    table: str,
    column: str,
    num_buckets: int,
    worker_fraction: float = 1.0,
    subject: str = "discovery",
    roles: tuple[str, ...] = ("public",),
) -> EquiDepthHistogram:
    """ED_Hist's equi-depth histogram, derived from the shared cached
    frequency table and cached per bucket count."""
    key = cache.key(table, column, "histogram", (num_buckets,))

    def compute() -> EquiDepthHistogram:
        distribution = cached_distribution(
            cache, deployment, table, column, worker_fraction, subject, roles
        )
        return EquiDepthHistogram.from_distribution(distribution, num_buckets)

    return cache.get_or_compute(key, compute)
