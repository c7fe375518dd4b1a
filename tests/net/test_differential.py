"""One protocol table, one stage machine: five rows × every way of
driving the coordinator give one answer.

For each row of :data:`repro.net.frames.PROTOCOLS` and the seeded
integer-valued deployment of ``conftest.py``, the query runs under one
:class:`QueryMeta` and one discovered distribution

* through the in-process driver,
* through a fleet over loopback transports,
* through a fleet over localhost TCP, unbatched and batched,

and every mode must produce the reference answer, the same
``tuples_collected`` / ``aggregation_rounds`` / ``partitions_processed``,
the same per-phase :class:`Observer` record counts and the same
collection-phase multiset of (payload length, tag) — and leave nothing
for :func:`repro.exposure.audit.audit_query` to find.
"""

import asyncio
import random
from collections import Counter
from dataclasses import dataclass

import pytest

from repro.cli import build_parser
from repro.core.messages import EncryptedTuple
from repro.exceptions import QueryAbortedError
from repro.exposure import audit
from repro.net.client import QuerierClient, RetryPolicy
from repro.net.fleet import FaultPlan, FleetRunner
from repro.net.frames import PROTOCOLS, QueryMeta
from repro.net.server import SSIDispatcher, SSIServer
from repro.net.transport import LoopbackTransport, TCPTransport
from repro.protocols import ProtocolDriver
from repro.simulation.failures import failure_budget

from .conftest import AVG_SQL, build_deployment, make_histogram, run_async, sorted_rows

BASIC_SQL = "SELECT cid, district FROM Consumer WHERE accomodation = 'flat'"
PHASES = ("collection", "aggregation", "filtering")

#: (fleet transport, batch_size)
FLEET_MODES = [(LoopbackTransport, 0), (TCPTransport, 0), (TCPTransport, 64)]


def sql_for(protocol):
    return BASIC_SQL if protocol == "basic" else AVG_SQL


def meta_of(protocol, partition_timeout=0.3):
    """The one meta both engines run a row under."""
    return QueryMeta(protocol, {"partition_timeout": partition_timeout})


@dataclass
class Outcome:
    rows: list
    counters: tuple  # tuples_collected, aggregation_rounds, partitions_processed
    reassigned: int
    records_per_phase: dict
    collection: Counter  # (payload length, tag) -> count
    findings: tuple


def outcome(dep, querier, query_id, protocol, stats, result):
    observations = [
        o for o in dep.ssi.observer.observations if o.query_id == query_id
    ]
    report = audit.audit_query(
        dep.ssi.observer,
        query_id,
        protocol,
        max_distinct_tags=len(make_histogram(dep).values()),
    )
    return Outcome(
        rows=sorted_rows(querier.decrypt_result(result)),
        counters=(
            stats.tuples_collected,
            stats.aggregation_rounds,
            stats.partitions_processed,
        ),
        reassigned=stats.reassigned_partitions,
        records_per_phase={
            phase: sum(1 for o in observations if o.phase == phase)
            for phase in PHASES
        },
        collection=Counter(
            (o.payload_size, o.group_tag)
            for o in observations
            if o.phase == "collection"
        ),
        findings=report.findings,
    )


def run_driver(meta, sql, *, failure_injector=None):
    """The in-process engine, against the local SSI."""
    dep = build_deployment()
    querier = dep.make_querier()
    envelope = querier.make_envelope(sql)
    dep.ssi.post_query(envelope)
    driver = ProtocolDriver(
        dep.ssi,
        collectors=dep.tds_list,
        workers=dep.tds_list,
        rng=random.Random(7),
        meta=meta,
        histogram=make_histogram(dep),
        failure_injector=failure_injector,
    )
    driver.execute(envelope)
    assert driver.stats is driver.coordinator.stats
    assert driver.stats.bytes_processed == driver.trace.total_bytes()
    result = dep.ssi.fetch_result(envelope.query_id)
    return outcome(dep, querier, envelope.query_id, meta.protocol, driver.stats, result)


async def run_fleet(meta, sql, *, dep=None, transport=TCPTransport, **fleet_kwargs):
    """serve + fleet + query; the dispatcher drives the coordinator.
    *transport*: the fleet's transport class (a TCPTransport, or
    LoopbackTransport for no sockets at all)."""
    dep = dep if dep is not None else build_deployment()
    dispatcher = SSIDispatcher(dep.ssi)
    server = SSIServer(dispatcher)
    over_tcp = issubclass(transport, TCPTransport)
    if over_tcp:
        await server.start()

    def connect(cls=transport):
        if over_tcp:
            return cls("127.0.0.1", server.port)
        return cls(dispatcher.dispatch)

    fleet_kwargs.setdefault("policy", RetryPolicy(backoff_base=0.01))
    fleet = FleetRunner(
        dep.tds_list,
        connect,
        histogram=make_histogram(dep),
        poll_interval=0.01,
        rng=random.Random(5),
        **fleet_kwargs,
    )
    fleet_task = asyncio.create_task(fleet.run())
    try:
        querier = dep.make_querier()
        envelope = querier.make_envelope(sql)
        client = QuerierClient(
            connect(TCPTransport if over_tcp else LoopbackTransport)
        )
        try:
            await client.post_query(envelope, meta=meta)
            result = await client.wait_result(envelope.query_id, timeout=30.0)
        finally:
            await client.close()
        stats = dispatcher.coordinators[envelope.query_id].stats
        return outcome(dep, querier, envelope.query_id, meta.protocol, stats, result)
    finally:
        fleet.stop()
        await fleet_task
        await server.close()


# --------------------------------------------------------------------- #
# the table is the only list of protocols
# --------------------------------------------------------------------- #
class TestOneTable:
    def test_every_row_has_a_driver_and_an_audit_contract(self):
        """One driver runs every row, with the row's defaults."""
        dep = build_deployment()
        for name in PROTOCOLS:
            driver = ProtocolDriver(
                dep.ssi, dep.tds_list, dep.tds_list, random.Random(0), name
            )
            assert driver.meta == QueryMeta(name)
        assert set(PROTOCOLS) == set(audit._CONTRACTS)

    def test_every_cli_protocol_choice_is_a_row(self):
        subcommands = next(
            action for action in build_parser()._actions if action.choices
        ).choices
        offered = {
            name: action.choices
            for name, parser in subcommands.items()
            for action in parser._actions
            if "--protocol" in action.option_strings
        }
        assert set(offered) == {"demo", "query", "multiquery"}
        for choices in offered.values():
            assert set(PROTOCOLS) == set(audit._CONTRACTS) == set(choices)


# --------------------------------------------------------------------- #
# five rows × four modes
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("protocol", list(PROTOCOLS))
class TestEveryModeAgrees:
    def test_same_answer_same_counters_same_ssi_view(self, protocol):
        sql = sql_for(protocol)
        meta = meta_of(protocol)
        inproc = run_driver(meta, sql)
        assert inproc.rows == sorted_rows(build_deployment().reference_answer(sql))
        assert inproc.rows and inproc.findings == ()
        others = {}
        for transport, batch_size in FLEET_MODES:
            others[f"{transport.__name__} fleet, batch {batch_size}"] = run_async(
                run_fleet(meta, sql, transport=transport, batch_size=batch_size)
            )
        for mode, other in others.items():
            assert other.rows == inproc.rows, mode
            assert other.counters == inproc.counters, mode
            assert other.reassigned == 0, mode
            assert other.records_per_phase == inproc.records_per_phase, mode
            assert other.findings == (), mode
            # every device derives its fakes from its own seeded rng, in
            # either engine: the tags agree too, not just the sizes
            assert other.collection == inproc.collection, mode

    def test_empty_collection_publishes_an_empty_result(self, protocol):
        sql = sql_for(protocol) + " SIZE 0 SECONDS"
        meta = meta_of(protocol)
        outcomes = {
            "in process": run_driver(meta, sql),
            "loopback fleet": run_async(
                run_fleet(meta, sql, transport=LoopbackTransport)
            ),
            "tcp fleet": run_async(run_fleet(meta, sql)),
        }
        for mode, got in outcomes.items():
            assert got.rows == [], mode
            assert got.counters == (0, 0, 0), mode

    def test_same_injector_in_process_and_on_the_wire(self, protocol):
        """failure_budget(2): the first two hand-outs go silent — by
        saying nothing to the inline coordinator, by dropping the TCP
        connection to the served one.  Either way the coordinator's own
        expiry re-issues them and the answer is exact."""
        sql = sql_for(protocol)
        meta = meta_of(protocol)
        reference = sorted_rows(build_deployment().reference_answer(sql))
        inproc = run_driver(meta, sql, failure_injector=failure_budget(2))
        wire = run_async(
            run_fleet(meta, sql, fault_plan=FaultPlan(failure_budget(2)))
        )
        for got in (inproc, wire):
            assert got.rows == reference
            assert got.reassigned >= 1
        # nothing is lost or done twice: the counters of a clean run
        assert inproc.counters == wire.counters == run_driver(meta, sql).counters

    def test_all_workers_failing_aborts_in_process(self, protocol):
        with pytest.raises(QueryAbortedError):
            run_driver(
                meta_of(protocol), sql_for(protocol), failure_injector=lambda *_: True
            )


class TestPartitionsTravelAsBlocks:
    def test_no_tuple_object_between_storage_and_decrypt(self, monkeypatch):
        """A contribution arrives as one block, and its tuples leave the
        SSI the same way: covering result, partitions, work units and
        the TDS's decrypt all work on blocks.  One ED_Hist query over
        the loopback fleet constructs no EncryptedTuple at all."""
        constructed = []
        original = EncryptedTuple.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(args[0] if args else kwargs.get("payload"))
            original(self, *args, **kwargs)

        monkeypatch.setattr(EncryptedTuple, "__init__", counting_init)
        got = run_async(
            run_fleet(meta_of("ed_hist"), AVG_SQL, transport=LoopbackTransport)
        )
        assert got.rows == sorted_rows(build_deployment().reference_answer(AVG_SQL))
        assert got.counters[0] > 0  # tuples were collected and folded
        assert len(constructed) == 0
