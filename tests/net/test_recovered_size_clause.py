"""A fleet-mode ``SIZE n SECONDS`` query that survives a restart closes
on the clock.

The clock of a fleet-mode query starts when the dispatcher first holds
it: at its post, or — recovered from a store — at the first request that
evaluates its SIZE clause.  The parent rebuilt the coordinator but not
the start time, so every evaluation after a restart saw zero seconds
elapsed, no timer was armed, and a fleet parked on such a query waited
for ever: a hang, not a failure — run on the virtual clock, where the
hold that would have expired empty costs nothing.
"""

import asyncio

import pytest

from repro.core.messages import EncryptedTuple
from repro.net import frames
from repro.net.client import AsyncSSIClient
from repro.net.frames import QueryMeta
from repro.net.server import SSIDispatcher
from repro.net.transport import LoopbackTransport
from repro.store import DurableStore

from .conftest import finish_query
from .golden.capture import envelope
from .virtual_time import run_virtual

#: binary fractions, like every pause below: the virtual clock adds
#: them up exactly, so a timer is never a rounding error early
SIZE_SECONDS = 0.25
HOLD = 2.0


def reopen(data_dir):
    """Nothing here leaves the loop thread, so the virtual clock holds."""
    store = DurableStore.open(data_dir, fsync_policy="none")
    return store, SSIDispatcher.with_store(store)


def test_a_device_parked_after_the_restart_is_released_on_the_deadline(tmp_path):
    async def run():
        loop = asyncio.get_running_loop()
        store, dispatcher = reopen(tmp_path)
        querier = AsyncSSIClient(LoopbackTransport(dispatcher.dispatch))
        await querier.post_query(
            envelope("q", size_seconds=SIZE_SECONDS), meta=QueryMeta("s_agg")
        )
        await querier.submit_tuples_batch("q", [EncryptedTuple(b"ct", b"g")])
        await asyncio.sleep(SIZE_SECONDS / 2)
        store.close()  # no final snapshot: the next open replays the WAL

        store, dispatcher = reopen(tmp_path)
        assert not dispatcher.ssi.collection_closed("q")
        assert dispatcher.ssi.collected_count("q") == 1
        # recovery armed nothing: a dispatcher built and dropped (offline
        # verification, the restart benchmark) leaves no timer behind
        assert dispatcher._clock_starts == {}
        await asyncio.sleep(10 * SIZE_SECONDS)  # down time is not query time
        device = AsyncSSIClient(LoopbackTransport(dispatcher.dispatch))
        first_request = loop.time()
        queries, unit, done = await device.await_work("tds-1", [], HOLD)
        assert [query.query_id for query, _meta in queries] == ["q"]
        assert unit is None and done == []
        assert loop.time() == first_request  # answered, not parked
        queries, unit, done = await device.await_work("tds-1", ["q"], HOLD)
        assert loop.time() - first_request == pytest.approx(SIZE_SECONDS)
        assert dispatcher.ssi.collection_closed("q")
        assert unit is not None and unit.query_id == "q"
        assert unit.kind == frames.WORK_FOLD and len(unit.items) == 1
        assert queries == [] and done == []
        store.close()

    run_virtual(run())


def test_a_finished_query_starts_no_clock(tmp_path):
    async def run():
        store, dispatcher = reopen(tmp_path)
        querier = AsyncSSIClient(LoopbackTransport(dispatcher.dispatch))
        await querier.post_query(
            envelope("q", size_seconds=SIZE_SECONDS), meta=QueryMeta("basic")
        )
        await querier.submit_tuples_batch("q", [EncryptedTuple(b"ct", None)])
        await finish_query(querier, "q", [b"row"])
        assert dispatcher.ssi.result_ready("q")
        store.close()

        store, dispatcher = reopen(tmp_path)
        device = AsyncSSIClient(LoopbackTransport(dispatcher.dispatch))
        started = asyncio.get_running_loop().time()
        assert await device.await_work("tds-1", ["q"], HOLD) == ([], None, ["q"])
        assert asyncio.get_running_loop().time() == started
        assert dispatcher._clock_starts == {}
        store.close()

    run_virtual(run())
