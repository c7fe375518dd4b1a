"""Distributed querying protocols — the paper's core contribution.

One :class:`ProtocolDriver` runs every row of
:data:`repro.net.frames.PROTOCOLS` in process:

* ``basic`` — Select-From-Where (§3.2);
* ``s_agg`` — iterative secure aggregation (§4.2);
* ``rnf_noise`` / ``c_noise`` — noise-based (§4.3);
* ``ed_hist`` — equi-depth histograms (§4.4);

plus the discovery protocols for domains and distributions (§4.3/§4.4).
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
from repro.protocols.verification import SpotChecker, verify_partition

__all__ = [
    "Deployment",
    "DiscoveryCache",
    "DiscoveryKey",
    "FailureInjector",
    "ProtocolDriver",
    "ProtocolStats",
    "PCEHR_TOKEN_PRIORITIES",
    "Priorities",
    "Recommendation",
    "SMART_METER_PRIORITIES",
    "Querier",
    "SpotChecker",
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
