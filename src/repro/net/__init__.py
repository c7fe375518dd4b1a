"""repro.net — the asyncio network runtime for the SSI.

Serves the :class:`~repro.ssi.server.SupportingServerInfrastructure`
over a length-prefixed binary wire protocol (:mod:`repro.net.frames`),
with an asyncio TCP server (:mod:`repro.net.server`), retrying clients
(:mod:`repro.net.client`), pluggable transports
(:mod:`repro.net.transport`), fleet-mode scheduling
(:mod:`repro.net.coordinator`) and an async TDS client fleet
(:mod:`repro.net.fleet`).
"""

from repro.net.client import (
    AsyncSSIClient,
    QuerierClient,
    RetryPolicy,
    TDSClient,
)
from repro.net.coordinator import QueryCoordinator
from repro.net.fleet import FaultPlan, FleetRunner, FleetStats
from repro.net.frames import PROTOCOL_VERSION, QueryMeta, WorkUnit
from repro.net.server import SSIDispatcher, SSIServer
from repro.net.transport import LoopbackTransport, TCPTransport, Transport

__all__ = [
    "AsyncSSIClient",
    "FaultPlan",
    "FleetRunner",
    "FleetStats",
    "LoopbackTransport",
    "PROTOCOL_VERSION",
    "QuerierClient",
    "QueryCoordinator",
    "QueryMeta",
    "RetryPolicy",
    "SSIDispatcher",
    "SSIServer",
    "TCPTransport",
    "TDSClient",
    "Transport",
    "WorkUnit",
]
