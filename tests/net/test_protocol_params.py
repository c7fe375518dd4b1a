"""A protocol's params are declared once, on its row of
:data:`repro.net.frames.PROTOCOLS`, and checked once for both engines.

Before, only the in-process driver classes checked them, so the wire
accepted a meta that poisoned the SSI (``alpha = nan``: every
``await_work`` answered ``ERR_INTERNAL`` once the healthy partitions
were handed out) or stopped the fleet (``nf = -1``: every device loop
ended with ``ConfigurationError``).  Now :meth:`QueryMeta.check` runs
first in ``SSIDispatcher._post_query`` and in ``ProtocolDriver``, with
one error for one meta.
"""

import asyncio
import math
import random

import pytest

from repro.exceptions import ProtocolError
from repro.net.client import QuerierClient, RetryPolicy
from repro.net.fleet import FleetRunner
from repro.net.frames import PROTOCOLS, QueryMeta
from repro.net.server import SSIDispatcher
from repro.net.transport import LoopbackTransport
from repro.protocols import ProtocolDriver

from .conftest import GROUP_SQL, build_deployment, make_histogram, run_async, sorted_rows

DECLARED = [
    pytest.param(protocol, name, spec, id=f"{protocol}-{name}")
    for protocol, row in PROTOCOLS.items()
    for name, spec in row.params.items()
]


def accepted_values(spec):
    """The default and every bound the range includes."""
    values = [] if spec.default is None else [spec.default]
    values.append(math.nextafter(spec.low, math.inf) if spec.above else spec.low)
    if math.isfinite(spec.high):
        values.append(spec.high)
    return values


def refused_values(spec):
    """Non-finite values, and the nearest value past each bound."""
    values = [math.nan, math.inf, -math.inf]
    values.append(spec.low if spec.above else math.nextafter(spec.low, -math.inf))
    if math.isfinite(spec.high):
        values.append(math.nextafter(spec.high, math.inf))
    return values


def in_process_error(dep, meta):
    try:
        ProtocolDriver(dep.ssi, dep.tds_list, dep.tds_list, random.Random(0), meta)
    except ProtocolError as exc:
        return exc
    return None


async def wire_error(client, querier, meta):
    try:
        await client.post_query(querier.make_envelope(GROUP_SQL), meta=meta)
    except ProtocolError as exc:
        return exc
    return None


@pytest.mark.parametrize("protocol, name, spec", DECLARED)
def test_both_engines_refuse_the_same_metas(protocol, name, spec):
    async def run():
        dep = build_deployment(num_tds=2)
        querier = dep.make_querier()
        client = QuerierClient(LoopbackTransport(SSIDispatcher(dep.ssi).dispatch))
        try:
            for value in accepted_values(spec):
                meta = QueryMeta(protocol, {name: value})
                assert in_process_error(dep, meta) is None, value
                assert await wire_error(client, querier, meta) is None, value
            for value in refused_values(spec):
                meta = QueryMeta(protocol, {name: value})
                inproc = in_process_error(dep, meta)
                wire = await wire_error(client, querier, meta)
                assert type(inproc) is type(wire) is ProtocolError, value
                assert name in str(inproc) and name in str(wire), value
        finally:
            await client.close()

    run_async(run())


def test_an_empty_meta_stays_valid():
    """Collected, never scheduled: the ingest workloads post it."""
    QueryMeta().check()


def test_an_unknown_protocol_is_refused_by_both_engines():
    dep = build_deployment(num_tds=2)
    with pytest.raises(ProtocolError, match="no coordinator"):
        ProtocolDriver(dep.ssi, dep.tds_list, dep.tds_list, random.Random(0), "mystery")
    with pytest.raises(ProtocolError, match="no coordinator"):
        QueryMeta("mystery").check()


def test_a_param_left_out_reads_the_row_default():
    assert QueryMeta("s_agg").param("alpha") == PROTOCOLS["s_agg"].params["alpha"].default
    assert QueryMeta("rnf_noise").param("nf") == 2
    assert QueryMeta("s_agg", {"alpha": 8}).param("alpha") == 8
    # the partition timeout's default is the engine's configured value
    assert QueryMeta("basic").param("partition_timeout", 5.0) == 5.0
    with pytest.raises(ProtocolError):
        QueryMeta("basic").param("partition_timeout")


@pytest.mark.parametrize(
    "bad",
    [
        pytest.param(QueryMeta("s_agg", {"alpha": math.nan}), id="nan-alpha"),
        pytest.param(QueryMeta("rnf_noise", {"nf": -1}), id="negative-nf"),
    ],
)
def test_a_refused_post_leaves_no_trace_and_the_fleet_serving(bad):
    """The nan alpha used to turn every later ``await_work`` into
    ``ERR_INTERNAL``; the negative nf ended every device loop.  Now the
    post is refused before admission, the journal or any side effect,
    and a healthy query posted beside it completes."""

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
            rng=random.Random(5),
        )
        fleet_task = asyncio.create_task(fleet.run())
        querier = dep.make_querier()
        client = QuerierClient(connect())
        try:
            healthy = querier.make_envelope(GROUP_SQL)
            await client.post_query(healthy, meta=QueryMeta("s_agg"))
            poisoned = querier.make_envelope(GROUP_SQL)
            with pytest.raises(ProtocolError) as refused:
                await client.post_query(poisoned, meta=bad)
            assert type(refused.value) is ProtocolError
            assert poisoned.query_id not in dep.ssi.storage_map()
            assert not dispatcher.idempotency.seen(client._client_id, client._seq)
            result = await client.wait_result(healthy.query_id, timeout=20.0)
            assert sorted_rows(querier.decrypt_result(result)) == sorted_rows(
                dep.reference_answer(GROUP_SQL)
            )
        finally:
            await client.close()
            fleet.stop()
            await fleet_task

    run_async(run())
