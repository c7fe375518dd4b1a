"""One protocol table, one stage machine: five rows × every way of
driving the coordinator give one answer.

For each row of :data:`repro.net.coordinator.PROTOCOLS` and the seeded
integer-valued deployment of ``conftest.py``, the query runs

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
from repro.net.coordinator import PROTOCOLS
from repro.net.fleet import FaultPlan, FleetRunner
from repro.net.frames import QueryMeta
from repro.net.server import SSIDispatcher, SSIServer
from repro.net.transport import LoopbackTransport, TCPTransport
from repro.protocols import DRIVERS
from repro.simulation.failures import failure_budget

from .conftest import AVG_SQL, build_deployment, make_histogram, run_async, sorted_rows

BASIC_SQL = "SELECT cid, district FROM Consumer WHERE accomodation = 'flat'"
PHASES = ("collection", "aggregation", "filtering")

#: (fleet transport, batch_size)
FLEET_MODES = [(LoopbackTransport, 0), (TCPTransport, 0), (TCPTransport, 64)]


def sql_for(protocol):
    return BASIC_SQL if protocol == "basic" else AVG_SQL


def driver_knowledge(protocol, dep):
    """What the in-process driver is constructed with: the same
    discovered distribution the fleet holds as ``histogram=``."""
    histogram = make_histogram(dep)
    domain = [(value,) for value in histogram.values()]
    return {
        "rnf_noise": {"domain": domain, "nf": 2},
        "c_noise": {"domain": domain},
        "ed_hist": {"histogram": histogram},
    }.get(protocol, {})


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


def sizes(collection):
    return Counter(size for size, _tag in collection.elements())


def run_driver(protocol, sql, *, failure_injector=None):
    """The in-process engine, against the local SSI."""
    dep = build_deployment()
    querier = dep.make_querier()
    envelope = querier.make_envelope(sql)
    dep.ssi.post_query(envelope)
    driver = DRIVERS[protocol](
        dep.ssi,
        collectors=dep.tds_list,
        workers=dep.tds_list,
        rng=random.Random(7),
        failure_injector=failure_injector,
        **driver_knowledge(protocol, dep),
    )
    driver.execute(envelope)
    assert driver.stats is driver.coordinator.stats
    assert driver.stats.bytes_processed == driver.trace.total_bytes()
    result = dep.ssi.fetch_result(envelope.query_id)
    return outcome(dep, querier, envelope.query_id, protocol, driver.stats, result)


async def run_fleet(
    protocol, sql, *, dep=None, transport=TCPTransport, partition_timeout=0.3,
    **fleet_kwargs,
):
    """serve + fleet + query; the dispatcher drives the coordinator.
    *transport*: the fleet's transport class (a TCPTransport, or
    LoopbackTransport for no sockets at all)."""
    dep = dep if dep is not None else build_deployment()
    dispatcher = SSIDispatcher(dep.ssi, partition_timeout=partition_timeout)
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
            meta = QueryMeta(protocol, {"partition_timeout": partition_timeout})
            await client.post_query(envelope, meta=meta)
            result = await client.wait_result(envelope.query_id, timeout=30.0)
        finally:
            await client.close()
        stats = dispatcher.coordinators[envelope.query_id].stats
        return outcome(dep, querier, envelope.query_id, protocol, stats, result)
    finally:
        fleet.stop()
        await fleet_task
        await server.close()


# --------------------------------------------------------------------- #
# the table is the only list of protocols
# --------------------------------------------------------------------- #
class TestOneTable:
    def test_every_row_has_a_driver_and_an_audit_contract(self):
        assert set(PROTOCOLS) == set(DRIVERS) == set(audit._CONTRACTS)

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
            assert set(choices) == set(PROTOCOLS)


# --------------------------------------------------------------------- #
# five rows × four modes
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("protocol", list(PROTOCOLS))
class TestEveryModeAgrees:
    def test_same_answer_same_counters_same_ssi_view(self, protocol):
        sql = sql_for(protocol)
        inproc = run_driver(protocol, sql)
        assert inproc.rows == sorted_rows(build_deployment().reference_answer(sql))
        assert inproc.rows and inproc.findings == ()
        others = {}
        for transport, batch_size in FLEET_MODES:
            others[f"{transport.__name__} fleet, batch {batch_size}"] = run_async(
                run_fleet(protocol, sql, transport=transport, batch_size=batch_size)
            )
        for mode, other in others.items():
            assert other.rows == inproc.rows, mode
            assert other.counters == inproc.counters, mode
            assert other.reassigned == 0, mode
            assert other.records_per_phase == inproc.records_per_phase, mode
            assert other.findings == (), mode
            if protocol == "rnf_noise":
                # which values the fakes take is each run's own draw:
                # the sizes and the number of records agree, not the tags
                assert sizes(other.collection) == sizes(inproc.collection), mode
            else:
                assert other.collection == inproc.collection, mode

    def test_empty_collection_publishes_an_empty_result(self, protocol):
        sql = sql_for(protocol) + " SIZE 0 SECONDS"
        outcomes = {
            "in process": run_driver(protocol, sql),
            "loopback fleet": run_async(
                run_fleet(protocol, sql, transport=LoopbackTransport)
            ),
            "tcp fleet": run_async(run_fleet(protocol, sql)),
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
        reference = sorted_rows(build_deployment().reference_answer(sql))
        inproc = run_driver(protocol, sql, failure_injector=failure_budget(2))
        wire = run_async(
            run_fleet(protocol, sql, fault_plan=FaultPlan(failure_budget(2)))
        )
        for got in (inproc, wire):
            assert got.rows == reference
            assert got.reassigned >= 1
        # nothing is lost or done twice: the counters of a clean run
        assert inproc.counters == wire.counters == run_driver(protocol, sql).counters

    def test_all_workers_failing_aborts_in_process(self, protocol):
        with pytest.raises(QueryAbortedError):
            run_driver(
                protocol, sql_for(protocol), failure_injector=lambda *_: True
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
        got = run_async(run_fleet("ed_hist", AVG_SQL, transport=LoopbackTransport))
        assert got.rows == sorted_rows(build_deployment().reference_answer(AVG_SQL))
        assert got.counters[0] > 0  # tuples were collected and folded
        assert len(constructed) == 0
