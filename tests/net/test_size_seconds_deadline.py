"""A fleet-mode ``SIZE n SECONDS`` clause closes at its deadline.

The post arms one timer for the clause.  When it fired, the parent read
the clock again, and ``now - started`` could come out one ulp short of
the clause's seconds (asyncio may also run a timer up to one clock
resolution early): the clause read as unmet, nothing armed another
timer, and a device parked on the query waited out its whole hold.
The timer now evaluates the clause at its own deadline.  Run on the
virtual clock, where the pauses add up in floating point exactly as a
real clock's readings would, and the hold costs nothing.
"""

import asyncio

import pytest

from repro.core.messages import EncryptedTuple
from repro.net import frames
from repro.net.client import AsyncSSIClient
from repro.net.frames import QueryMeta
from repro.net.server import SSIDispatcher
from repro.net.transport import LoopbackTransport

from .golden.capture import envelope
from .virtual_time import run_virtual

#: how long the loop ran before the post: where the clock starts
PAUSES = [0.0, 0.1, 0.2, 0.3, 0.7, 1.1, 3.3, 7.7, 12.9]
SIZE_SECONDS = [0.1, 0.3, 0.7, 1.3, 2.2]
HOLD = 4.0


@pytest.mark.parametrize("size_seconds", SIZE_SECONDS)
@pytest.mark.parametrize("pause", PAUSES)
def test_a_parked_device_is_released_when_the_clause_is_due(pause, size_seconds):
    async def run():
        loop = asyncio.get_running_loop()
        dispatcher = SSIDispatcher()
        querier = AsyncSSIClient(LoopbackTransport(dispatcher.dispatch))
        await asyncio.sleep(pause)
        posted = loop.time()
        await querier.post_query(
            envelope("q", size_seconds=size_seconds), meta=QueryMeta("s_agg")
        )
        await querier.submit_tuples_batch("q", [EncryptedTuple(b"ct", b"g")])
        device = AsyncSSIClient(LoopbackTransport(dispatcher.dispatch))
        queries, unit, done = await device.await_work("tds-1", ["q"], HOLD)
        assert loop.time() - posted == pytest.approx(size_seconds)
        assert dispatcher.ssi.collection_closed("q")
        assert unit is not None and unit.query_id == "q"
        assert unit.kind == frames.WORK_FOLD and len(unit.block) == 1
        assert queries == [] and done == []

    run_virtual(run())
