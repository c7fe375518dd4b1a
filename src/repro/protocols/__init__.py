"""Distributed querying protocols — the paper's core contribution.

* :class:`SelectWhereProtocol` — basic Select-From-Where (§3.2);
* :class:`SAggProtocol` — iterative secure aggregation (§4.2);
* :class:`RnfNoiseProtocol` / :class:`CNoiseProtocol` — noise-based (§4.3);
* :class:`EDHistProtocol` — equi-depth histograms (§4.4);
* discovery protocols for domains and distributions (§4.3/§4.4).
"""

from repro.protocols.base import FailureInjector, ProtocolDriver, ProtocolStats, Querier
from repro.protocols.deployment import Deployment
from repro.protocols.discovery import (
    build_histogram,
    discover_distribution,
    discover_domain,
)
from repro.protocols.discovery_cache import (
    DiscoveryCache,
    DiscoveryKey,
    cached_distribution,
    cached_domain,
    cached_histogram,
)
from repro.protocols.ed_hist import EDHistProtocol
from repro.protocols.noise_based import CNoiseProtocol, RnfNoiseProtocol
from repro.protocols.s_agg import ALPHA_OPTIMAL, SAggProtocol
from repro.protocols.select_where import SelectWhereProtocol
from repro.protocols.selector import (
    PCEHR_TOKEN_PRIORITIES,
    Priorities,
    Recommendation,
    SMART_METER_PRIORITIES,
    recommend_protocol,
)
from repro.protocols.streaming import (
    WindowedQueryRunner,
    WindowResult,
    append_feed,
)
from repro.protocols.tagged import TaggedAggregationProtocol
from repro.protocols.verification import SpotChecker, verify_partition

#: protocol name (a row of :data:`repro.net.coordinator.PROTOCOLS`) → the
#: driver class that runs it in process
DRIVERS: dict[str, type[ProtocolDriver]] = {
    cls.name: cls
    for cls in (
        SelectWhereProtocol,
        SAggProtocol,
        RnfNoiseProtocol,
        CNoiseProtocol,
        EDHistProtocol,
    )
}

__all__ = [
    "ALPHA_OPTIMAL",
    "CNoiseProtocol",
    "DRIVERS",
    "Deployment",
    "DiscoveryCache",
    "DiscoveryKey",
    "EDHistProtocol",
    "FailureInjector",
    "ProtocolDriver",
    "ProtocolStats",
    "PCEHR_TOKEN_PRIORITIES",
    "Priorities",
    "Recommendation",
    "SMART_METER_PRIORITIES",
    "Querier",
    "RnfNoiseProtocol",
    "SAggProtocol",
    "SelectWhereProtocol",
    "SpotChecker",
    "TaggedAggregationProtocol",
    "WindowResult",
    "WindowedQueryRunner",
    "append_feed",
    "build_histogram",
    "cached_distribution",
    "cached_domain",
    "cached_histogram",
    "discover_distribution",
    "discover_domain",
    "recommend_protocol",
    "verify_partition",
]
