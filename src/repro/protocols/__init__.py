"""Distributed querying protocols — the paper's core contribution.

One :class:`ProtocolDriver` runs every row of
:data:`repro.net.frames.PROTOCOLS` in process:

* ``basic`` — Select-From-Where (§3.2);
* ``s_agg`` — iterative secure aggregation (§4.2);
* ``rnf_noise`` / ``c_noise`` — noise-based (§4.3);
* ``ed_hist`` — equi-depth histograms (§4.4);

plus discovery (§4.3/§4.4): :func:`build_histogram` gives ED_Hist's
buckets, whose ``values()`` are the noise protocols' domain.
"""

from repro.protocols.base import FailureInjector, ProtocolDriver, ProtocolStats, Querier
from repro.protocols.deployment import Deployment
from repro.protocols.discovery import build_histogram, discover_distribution
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
    "discover_distribution",
    "recommend_protocol",
    "verify_partition",
]
