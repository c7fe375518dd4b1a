"""One-call simulated protocol execution.

:func:`run_simulated` glues a :class:`~repro.protocols.deployment.Deployment`
to the protocol driver and a connectivity schedule: it runs the protocol for
real (real crypto, real partials), then replays the execution trace on the
simulated timeline.  The answer rows come from the actual run; the timing
comes from the replay.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.net.frames import QueryMeta
from repro.protocols.base import ProtocolDriver, ProtocolStats
from repro.protocols.deployment import Deployment
from repro.simulation.availability import ConnectivitySchedule, always_on
from repro.simulation.network import NetworkModel
from repro.simulation.replay import SimulationReport, TraceScheduler
from repro.sql.schema import Row


@dataclass
class SimulatedRun:
    """Everything one simulated query yields."""

    rows: list[Row]
    stats: ProtocolStats
    report: SimulationReport


def run_simulated(
    deployment: Deployment,
    meta: QueryMeta | str,
    sql: str,
    schedule: ConnectivitySchedule | None = None,
    worker_fraction: float = 1.0,
    network: NetworkModel | None = None,
    timeout: float = 60.0,
    seed: int = 0,
    roles: tuple[str, ...] = ("public",),
    **driver_kwargs,
) -> SimulatedRun:
    """Execute *sql* under *meta* (a protocol row and its params) and
    replay it on the timeline; *driver_kwargs* go to the
    :class:`ProtocolDriver` (``histogram=``, ``failure_injector=``, …)."""
    querier = deployment.make_querier(roles=roles)
    envelope = querier.make_envelope(sql)
    deployment.ssi.post_query(envelope)
    driver = ProtocolDriver(
        deployment.ssi,
        collectors=deployment.tds_list,
        workers=deployment.connected_tds(worker_fraction),
        rng=random.Random(seed),
        meta=meta,
        **driver_kwargs,
    )
    driver.execute(envelope)
    rows = querier.decrypt_result(deployment.ssi.fetch_result(envelope.query_id))

    if schedule is None:
        schedule = always_on([tds.tds_id for tds in deployment.tds_list])
    device_for = {tds.tds_id: tds.device for tds in deployment.tds_list}
    scheduler = TraceScheduler(
        schedule, network=network, device_for=device_for, timeout=timeout
    )
    report = scheduler.replay(driver.trace)
    return SimulatedRun(rows=rows, stats=driver.stats, report=report)
