"""A stopped stack is freed by reference counting alone.

Every retained ciphertext hangs off the dispatcher, so a torn-down
server that waits for the cycle collector keeps a whole query history
in memory for as long as the collector happens not to run.  With the
collector off, the weak references below die only if nothing the
teardown leaves behind — cancelled parked handlers, the exception that
ended a connection's read loop — still holds the dispatcher through a
traceback.
"""

import asyncio
import gc
import random
import weakref

import pytest

from repro import store as repro_store
from repro.net.client import QuerierClient
from repro.net.fleet import FleetRunner
from repro.net.frames import QueryMeta
from repro.net.server import SSIDispatcher, SSIServer
from repro.net.transport import LoopbackTransport, TCPTransport

from .conftest import AVG_SQL, build_deployment, make_histogram, run_async


async def _run_and_stop(tmp_path, over_tcp: bool) -> dict[str, weakref.ref]:
    """One ed_hist query through a durable dispatcher and a fleet whose
    devices end up parked in ``await_work``, then the teardown the
    benchmark harness and ``repro serve`` use.  Returns weak references
    to what must not outlive it."""
    dep = build_deployment(4)
    store = repro_store.DurableStore.open(tmp_path, fsync_policy="none")
    dispatcher = SSIDispatcher.with_store(store)
    server = SSIServer(dispatcher)
    if over_tcp:
        await server.start()

    def transport():
        if over_tcp:
            return TCPTransport("127.0.0.1", server.port)
        return LoopbackTransport(dispatcher.dispatch)

    fleet = FleetRunner(
        dep.tds_list,
        transport,
        histogram=make_histogram(dep),
        batch_size=8,
        rng=random.Random(5),
    )
    fleet_task = asyncio.create_task(fleet.run())
    querier = dep.make_querier()
    client = QuerierClient(transport(), rng=random.Random(6))
    envelope = querier.make_envelope(AVG_SQL)
    await client.post_query(envelope, meta=QueryMeta("ed_hist"))
    result = await client.wait_result(envelope.query_id, timeout=30.0)
    assert len(querier.decrypt_result(result)) == 4

    fleet.stop()
    await fleet_task
    await client.close()
    await server.close()
    store.close()
    return {
        "dispatcher": weakref.ref(dispatcher),
        "ssi": weakref.ref(dispatcher.ssi),
        "store": weakref.ref(store),
        "server": weakref.ref(server),
    }


@pytest.mark.parametrize("over_tcp", [False, True], ids=["loopback", "tcp"])
def test_stopped_stack_dies_without_the_cycle_collector(tmp_path, over_tcp):
    async def body():
        # server.close() hung up its connections and waited for their
        # handlers, so there is nothing left to wait for
        refs = await _run_and_stop(tmp_path, over_tcp)
        return sorted(name for name, ref in refs.items() if ref() is not None)

    gc.collect()
    gc.disable()
    try:
        assert run_async(body()) == []
    finally:
        gc.enable()
