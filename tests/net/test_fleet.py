"""Fleet-mode end-to-end tests over real localhost TCP.

serve + fleet + query: the SSI process schedules partitions
(QueryCoordinator), N TDS clients poll for work over sockets, a thin
querier posts the query and decrypts the published result.  The answers
must equal the in-process drivers', including under injected mid-query
connection drops (partition reassignment, §3.2 Correctness).
"""

import asyncio
import random

import pytest

from repro.net.client import QuerierClient, RetryPolicy
from repro.net.fleet import FaultPlan, FleetRunner
from repro.net.frames import QueryMeta
from repro.net.server import SSIDispatcher, SSIServer
from repro.net.transport import TCPTransport
from repro.protocols import EDHistProtocol, SAggProtocol
from repro.simulation.failures import failure_budget, flaky_workers

from .conftest import (
    GROUP_SQL,
    build_deployment,
    make_histogram,
    run_driver_inproc,
    run_async,
    sorted_rows,
)


async def run_fleet_query(
    sql,
    protocol,
    *,
    num_tds=8,
    fault_plan=None,
    partition_timeout=0.5,
    meta_params=None,
    wait_timeout=45.0,
):
    """One full serve+fleet+query cycle over localhost TCP.

    Returns (sorted decrypted rows, fleet stats, coordinator)."""
    dep = build_deployment(num_tds)
    dispatcher = SSIDispatcher(dep.ssi, partition_timeout=partition_timeout)
    server = SSIServer(dispatcher)
    await server.start()
    fleet = FleetRunner(
        dep.tds_list,
        lambda: TCPTransport("127.0.0.1", server.port),
        histogram=make_histogram(dep),
        fault_plan=fault_plan,
        policy=RetryPolicy(backoff_base=0.01),
        poll_interval=0.01,
        rng=random.Random(5),
    )
    fleet_task = asyncio.create_task(fleet.run(until_queries_done=1))
    try:
        querier = dep.make_querier()
        envelope = querier.make_envelope(sql)
        client = QuerierClient(TCPTransport("127.0.0.1", server.port))
        try:
            params = {"partition_timeout": partition_timeout}
            params.update(meta_params or {})
            await client.post_query(envelope, meta=QueryMeta(protocol, params))
            result = await client.wait_result(
                envelope.query_id, poll_interval=0.01, timeout=wait_timeout
            )
        finally:
            await client.close()
        rows = sorted_rows(querier.decrypt_result(result))
        await fleet_task
        return rows, fleet.stats, dispatcher.coordinators[envelope.query_id]
    finally:
        fleet.stop()
        await server.close()


class TestEndToEnd:
    def test_sagg_over_tcp_matches_in_process_driver(self):
        rows, stats, coord = run_async(run_fleet_query(GROUP_SQL, "s_agg"))
        assert rows == run_driver_inproc(SAggProtocol, GROUP_SQL)
        assert stats.contributions == 8
        assert coord.stats.partitions_processed >= 1

    def test_edhist_over_tcp_matches_in_process_driver(self):
        rows, stats, coord = run_async(
            run_fleet_query(
                GROUP_SQL, "ed_hist", meta_params={"first_step_partition_size": 4}
            )
        )
        dep = build_deployment()
        assert rows == run_driver_inproc(
            EDHistProtocol, GROUP_SQL, histogram=make_histogram(dep)
        )
        # fold -> merge -> finalize
        assert coord.stats.aggregation_rounds >= 2

    def test_sagg_sum_query(self):
        sql = "SELECT SUM(cons) AS total FROM Power"
        rows, __, __ = run_async(run_fleet_query(sql, "s_agg"))
        dep = build_deployment()
        assert rows == sorted_rows(dep.reference_answer(sql))

    def test_size_clause_closed_by_server_clock(self):
        sql = GROUP_SQL + " SIZE 4 TUPLES"
        rows, __, __ = run_async(run_fleet_query(sql, "s_agg"))
        # 4 of the 8 districts' rows were collected; the result is a
        # subset aggregation but must still decrypt and group cleanly.
        assert 1 <= len(rows) <= 4


class TestFailureRecovery:
    def test_connection_drop_triggers_reassignment(self):
        """A permanently flaky TDS drops its connection instead of
        submitting; the tracker must time the partition out, reassign it
        to a healthy worker and still produce the exact answer."""
        rows, stats, coord = run_async(
            run_fleet_query(
                GROUP_SQL,
                "s_agg",
                fault_plan=FaultPlan(flaky_workers({"tds-1"})),
                partition_timeout=0.3,
            )
        )
        assert rows == run_driver_inproc(SAggProtocol, GROUP_SQL)
        assert stats.injected_faults >= 1
        assert coord.stats.reassigned_partitions >= 1

    def test_edhist_survives_drops_too(self):
        rows, stats, coord = run_async(
            run_fleet_query(
                GROUP_SQL,
                "ed_hist",
                fault_plan=FaultPlan(flaky_workers({"tds-0", "tds-2"})),
                partition_timeout=0.3,
            )
        )
        dep = build_deployment()
        assert rows == run_driver_inproc(
            EDHistProtocol, GROUP_SQL, histogram=make_histogram(dep)
        )
        assert stats.injected_faults >= 1
        assert coord.stats.reassigned_partitions >= 1

    def test_failure_budget_is_deterministic(self):
        """failure_budget(k) fires on exactly the first k partition
        attempts, fleet-wide — the injected-fault count is exact, not
        probabilistic, and the query still completes correctly."""
        rows, stats, coord = run_async(
            run_fleet_query(
                GROUP_SQL,
                "s_agg",
                fault_plan=FaultPlan(failure_budget(2)),
                partition_timeout=0.3,
            )
        )
        assert rows == run_driver_inproc(SAggProtocol, GROUP_SQL)
        assert stats.injected_faults == 2
        assert coord.stats.reassigned_partitions >= 1

    def test_stalled_response_fault_mode(self):
        """A stalling worker holds the partition past the timeout; the
        coordinator reassigns, and the late submit is dropped as a
        duplicate rather than double-counted."""
        rows, stats, coord = run_async(
            run_fleet_query(
                GROUP_SQL,
                "s_agg",
                fault_plan=FaultPlan(
                    failure_budget(1), mode="stall", stall_seconds=0.5
                ),
                partition_timeout=0.2,
            )
        )
        assert rows == run_driver_inproc(SAggProtocol, GROUP_SQL)
        assert stats.injected_faults == 1
        assert coord.stats.reassigned_partitions >= 1


class TestFaultPlanValidation:
    def test_unknown_mode_rejected(self):
        from repro.exceptions import ProtocolError

        with pytest.raises(ProtocolError):
            FaultPlan(failure_budget(0), mode="explode")
