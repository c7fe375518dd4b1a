"""Fleet bugs: two the one-engine refactor surfaced, and one query
that stopped the whole fleet.

* A device whose policy denies the query used to refuse the *partitions*
  it was handed as well: the partition idled a whole
  ``partition_timeout`` before reassignment — a timing pattern pointing
  at exactly the devices that denied, which §3.2 says the SSI must not
  learn — and in process the query raised iff ``workers[0]`` denied.
  Credential and policy gate what a TDS contributes; serving a
  partition takes only the query.
* ``contribution`` / ``partition`` spans stayed open forever when the
  exchange inside them failed.
* A query every device fails to evaluate (an unknown column raises
  ``EvaluationError``, a ``ReproError`` outside ``ProtocolError``) ended
  every device loop without a log line; nothing posted after it was
  ever published.
* A query posted to a personal querybox (§3.1, the doctor querying one
  patient's device) was never offered to anyone over the wire.
"""

import asyncio
import logging
import random
import time

import pytest

from repro.exceptions import TransportError
from repro.net import frames
from repro.net.client import QuerierClient, RetryPolicy
from repro.net.fleet import FaultPlan, FleetRunner
from repro.net.frames import QueryMeta
from repro.net.server import SSIDispatcher
from repro.net.transport import LoopbackTransport, TCPTransport
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.protocols import Deployment, ProtocolDriver
from repro.simulation.failures import failure_budget
from repro.store import DurableStore
from repro.tds.access_control import AccessPolicy
from repro.tds.node import TrustedDataServer

from .conftest import (
    AVG_SQL,
    GROUP_SQL,
    build_deployment,
    make_histogram,
    run_async,
    sorted_rows,
)
from .test_differential import BASIC_SQL, meta_of, run_fleet

PARTITION_TIMEOUT = 2.0


def deny(dep, index):
    """Give one device a policy that grants the querier nothing."""
    honest = dep.tds_list[index]
    dep.tds_list[index] = TrustedDataServer(
        honest.tds_id,
        honest.database,
        dep.provisioner.bundle_for_tds(),
        AccessPolicy(),
        dep.authority,
        device=honest.device,
        rng=random.Random(index),
    )


def granted_answer(dep, deniers, sql):
    granting = [t for i, t in enumerate(dep.tds_list) if i not in deniers]
    view = Deployment(
        granting, dep.ssi, dep.provisioner, dep.authority, dep.policy, dep.rng
    )
    return sorted_rows(view.reference_answer(sql))


@pytest.mark.parametrize("protocol", ["basic", "s_agg", "ed_hist"])
@pytest.mark.parametrize("deniers", [(0,), (3,), (0, 3, 5, 6)])
class TestDenyingDevicesStillServePartitions:
    def sql(self, protocol):
        return BASIC_SQL if protocol == "basic" else AVG_SQL

    def test_tcp_fleet_neither_stalls_nor_tells(self, protocol, deniers, caplog):
        dep = build_deployment()
        for index in deniers:
            deny(dep, index)
        sql = self.sql(protocol)
        started = time.perf_counter()
        with caplog.at_level(logging.WARNING, logger="repro.net.fleet"):
            got = run_async(
                run_fleet(meta_of(protocol, PARTITION_TIMEOUT), sql, dep=dep)
            )
        elapsed = time.perf_counter() - started
        assert got.rows == granted_answer(dep, deniers, sql)
        assert got.reassigned == 0
        assert "fleet_protocol_error" not in caplog.text
        assert elapsed < PARTITION_TIMEOUT / 2

    def test_in_process_whichever_worker_denies(self, protocol, deniers):
        dep = build_deployment()
        for index in deniers:
            deny(dep, index)
        sql = self.sql(protocol)
        querier = dep.make_querier()
        envelope = querier.make_envelope(sql)
        dep.ssi.post_query(envelope)
        driver = ProtocolDriver(
            dep.ssi,
            collectors=dep.tds_list,
            workers=dep.tds_list,
            rng=random.Random(7),
            meta=protocol,
            histogram=make_histogram(dep),
        )
        driver.execute(envelope)
        rows = querier.decrypt_result(dep.ssi.fetch_result(envelope.query_id))
        assert sorted_rows(rows) == granted_answer(dep, deniers, sql)
        assert driver.stats.reassigned_partitions == 0
        if 0 in deniers:  # every round starts at worker 0: it did serve
            assert "tds-0" in {
                e.tds_id for e in driver.trace.events if e.phase != "collection"
            }


class FailFirstSubmitsTransport(TCPTransport):
    """Loses the fleet's first contribution and its first partition
    result before they reach the wire."""

    pending = set()

    async def request(self, message):
        # frame layout: 4-byte length, version byte, then the msg type
        if message[5] in self.pending:
            self.pending.discard(message[5])
            raise TransportError("injected: lost before the wire")
        return await super().request(message)


class TestFleetSpansCloseOnFailure:
    def test_failed_exchanges_leave_no_open_span(self):
        obs_spans.RECORDER.reset()
        FailFirstSubmitsTransport.pending = {
            frames.MSG_SUBMIT_TUPLES_BATCH,
            frames.MSG_SUBMIT_PARTITION_RESULT,
        }
        dep = build_deployment()
        got = run_async(
            run_fleet(
                meta_of("s_agg"),
                AVG_SQL,
                dep=dep,
                transport=FailFirstSubmitsTransport,
                fault_plan=FaultPlan(failure_budget(1)),
                policy=RetryPolicy(max_retries=0),
            )
        )
        assert FailFirstSubmitsTransport.pending == set()  # both were lost
        assert got.rows == sorted_rows(dep.reference_answer(AVG_SQL))
        assert got.reassigned >= 1
        fleet_spans = [
            span
            for span in obs_spans.RECORDER.snapshot()
            if span.name in ("contribution", "partition")
        ]
        assert fleet_spans
        assert [span for span in fleet_spans if span.end is None] == []


class TestAQueryNoDeviceCanEvaluate:
    BAD_SQL = (
        "SELECT district, COUNT(*) AS n FROM Consumer WHERE nosuch = 1 "
        "GROUP BY district"
    )

    def test_is_logged_and_the_fleet_keeps_serving(self, caplog):
        async def run():
            dep = build_deployment(num_tds=4)
            dispatcher = SSIDispatcher(dep.ssi, partition_timeout=0.3)

            def connect():
                return LoopbackTransport(dispatcher.dispatch)

            fleet = FleetRunner(
                dep.tds_list,
                connect,
                histogram=make_histogram(dep),
                policy=RetryPolicy(backoff_base=0.01),
                poll_interval=0.01,
                shard_label="unevaluable",
                rng=random.Random(5),
            )
            fleet_task = asyncio.create_task(fleet.run())
            querier = dep.make_querier()
            client = QuerierClient(connect())
            try:
                bad = querier.make_envelope(self.BAD_SQL)
                await client.post_query(bad, meta=QueryMeta("s_agg"))
                healthy = querier.make_envelope(GROUP_SQL)
                await client.post_query(healthy, meta=QueryMeta("s_agg"))
                result = await client.wait_result(healthy.query_id, timeout=10.0)
                assert sorted_rows(querier.decrypt_result(result)) == sorted_rows(
                    dep.reference_answer(GROUP_SQL)
                )
                serving = [
                    task
                    for task in asyncio.all_tasks()
                    if task.get_coro().__qualname__ == "FleetRunner._serve_tds"
                ]
                assert len(serving) == len(dep.tds_list)  # none has ended
            finally:
                await client.close()
                fleet.stop()
                await fleet_task

        with caplog.at_level(logging.WARNING, logger="repro.net.fleet"):
            run_async(run())
        errors = obs_metrics.REGISTRY.snapshot()["repro_fleet_protocol_errors_total"]
        assert errors[(("shard", "unevaluable"),)] > 0
        logged = [
            record.repro_fields["error"]
            for record in caplog.records
            if record.getMessage() == "fleet_protocol_error"
        ]
        # logged by type: the message may quote the query
        assert logged and set(logged) == {"EvaluationError"}


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT cid, district FROM Consumer SIZE 1 TUPLES",
        # no SIZE clause: the SSI closes the collection after the one
        # contribution a personal query addresses
        "SELECT cid, district FROM Consumer",
    ],
)
class TestAPersonalQueryReachesItsDevice:
    TARGET = 5

    def in_process_answer(self, sql):
        dep = build_deployment()
        querier = dep.make_querier()
        envelope = querier.make_envelope(sql)
        target = dep.tds_list[self.TARGET]
        dep.ssi.post_query(envelope, tds_id=target.tds_id)
        driver = ProtocolDriver(
            dep.ssi,
            collectors=[target],
            workers=dep.tds_list,
            rng=random.Random(7),
            meta="basic",
        )
        driver.execute(envelope)
        return sorted_rows(
            querier.decrypt_result(dep.ssi.fetch_result(envelope.query_id))
        )

    def test_over_loopback_only_the_target_contributes(self, sql):
        async def run():
            dep = build_deployment()
            dispatcher = SSIDispatcher(dep.ssi, partition_timeout=PARTITION_TIMEOUT)

            def connect():
                return LoopbackTransport(dispatcher.dispatch)

            fleet = FleetRunner(
                dep.tds_list,
                connect,
                policy=RetryPolicy(backoff_base=0.01),
                poll_interval=0.01,
                rng=random.Random(5),
            )
            fleet_task = asyncio.create_task(fleet.run(until_queries_done=1))
            querier = dep.make_querier()
            client = QuerierClient(connect())
            try:
                envelope = querier.make_envelope(sql)
                target = dep.tds_list[self.TARGET].tds_id
                await client.post_query(envelope, target, QueryMeta("basic"))
                result = await client.wait_result(envelope.query_id, timeout=10.0)
                rows = sorted_rows(querier.decrypt_result(result))
                assert dep.ssi.collected_count(envelope.query_id) == 1
            finally:
                await client.close()
                fleet.stop()
                stats = await fleet_task
            return rows, stats

        rows, stats = run_async(run())
        assert rows == self.in_process_answer(sql)
        assert len(rows) == 1
        assert stats.contributions == 1

    @pytest.mark.parametrize("snapshot", [False, True], ids=["wal", "snapshot"])
    def test_across_a_restart(self, sql, snapshot, tmp_path):
        """Posted, then the SSI restarts before any device connects: the
        recovered record still names the target's querybox and carries
        the meta, whether recovery replays the WAL or reads a snapshot."""

        async def run():
            dep = build_deployment()
            querier = dep.make_querier()
            envelope = querier.make_envelope(sql)
            store = DurableStore.open(tmp_path, fsync_policy="none")
            dispatcher = SSIDispatcher.with_store(store)
            client = QuerierClient(LoopbackTransport(dispatcher.dispatch))
            target = dep.tds_list[self.TARGET].tds_id
            await client.post_query(envelope, target, QueryMeta("basic"))
            await client.close()
            store.close(dispatcher.capture_state() if snapshot else None)

            store = DurableStore.open(tmp_path, fsync_policy="none")
            assert store.recovered.replayed_records == (0 if snapshot else 1)
            dispatcher = SSIDispatcher.with_store(
                store, partition_timeout=PARTITION_TIMEOUT
            )

            def connect():
                return LoopbackTransport(dispatcher.dispatch)

            fleet = FleetRunner(
                dep.tds_list,
                connect,
                policy=RetryPolicy(backoff_base=0.01),
                poll_interval=0.01,
                rng=random.Random(5),
            )
            fleet_task = asyncio.create_task(fleet.run(until_queries_done=1))
            client = QuerierClient(connect())
            try:
                result = await client.wait_result(envelope.query_id, timeout=10.0)
                rows = sorted_rows(querier.decrypt_result(result))
                assert dispatcher.ssi.collected_count(envelope.query_id) == 1
            finally:
                await client.close()
                fleet.stop()
                stats = await fleet_task
                store.close()
            return rows, stats

        rows, stats = run_async(run())
        assert rows == self.in_process_answer(sql)
        assert stats.contributions == 1
