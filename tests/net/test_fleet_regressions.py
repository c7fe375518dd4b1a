"""Two fleet bugs the one-engine refactor surfaced.

* A device whose policy denies the query used to refuse the *partitions*
  it was handed as well: the partition idled a whole
  ``partition_timeout`` before reassignment — a timing pattern pointing
  at exactly the devices that denied, which §3.2 says the SSI must not
  learn — and in process the query raised iff ``workers[0]`` denied.
  Credential and policy gate what a TDS contributes; serving a
  partition takes only the query.
* ``contribution`` / ``partition`` spans stayed open forever when the
  exchange inside them failed.
"""

import logging
import random
import time

import pytest

from repro.exceptions import TransportError
from repro.net import frames
from repro.net.client import RetryPolicy
from repro.net.fleet import FaultPlan
from repro.net.transport import TCPTransport
from repro.obs import spans as obs_spans
from repro.protocols import DRIVERS, Deployment
from repro.simulation.failures import failure_budget
from repro.tds.access_control import AccessPolicy
from repro.tds.node import TrustedDataServer

from .conftest import AVG_SQL, build_deployment, make_histogram, run_async, sorted_rows
from .test_differential import BASIC_SQL, run_fleet

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
                run_fleet(
                    protocol, sql, dep=dep, partition_timeout=PARTITION_TIMEOUT
                )
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
        knowledge = {"histogram": make_histogram(dep)} if protocol == "ed_hist" else {}
        driver = DRIVERS[protocol](
            dep.ssi,
            collectors=dep.tds_list,
            workers=dep.tds_list,
            rng=random.Random(7),
            **knowledge,
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
            frames.MSG_SUBMIT_TUPLES,
            frames.MSG_SUBMIT_PARTITION_RESULT,
        }
        dep = build_deployment()
        got = run_async(
            run_fleet(
                "s_agg",
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
