"""Long polls under seeded chaos and over a long history — all on a
virtual clock (``virtual_time.py``), so holds, partition timeouts and
back-offs cost nothing and a run is a function of its seed.

* **Interleaving**: the real ``FleetRunner`` and ``QuerierClient`` over a
  transport that delays requests, loses responses and kills requests in
  flight — at random times, and in the very step in which another
  request finished (the release-then-die window).  Whatever the order of
  post / submit / complete / park / cancel / hold-expiry, every query
  must end published with the plaintext answer.
* **History**: after 200 queries nothing per-request or per-device has
  grown with them.
"""

import asyncio
import random

import pytest

from repro.exceptions import TransportError
from repro.net import frames
from repro.net.client import QuerierClient, RetryPolicy
from repro.net.coordinator import QueryCoordinator
from repro.net.fleet import FaultPlan, FleetRunner
from repro.net.frames import QueryMeta
from repro.net.server import SSIDispatcher
from repro.net.transport import LoopbackTransport
from repro.simulation.failures import failure_budget

from .conftest import GROUP_SQL, build_deployment, make_histogram, sorted_rows
from .virtual_time import run_virtual

SEEDS = 240
PARTITION_TIMEOUT = 0.5


class ChaosTransport(LoopbackTransport):
    """A lossy wire in virtual time.  Each dispatch runs as its own task
    (as ``SSIServer`` runs each frame), so killing one is what a dropped
    connection does to the request it carried."""

    def __init__(self, dispatch, rng, inflight):
        super().__init__(dispatch)
        self.rng = rng
        #: the dispatch tasks of every chaos transport of the run
        self.inflight = inflight

    async def _handle(self, body):
        response = await self._dispatch(body)
        others = [task for task in self.inflight if task is not asyncio.current_task()]
        if others and self.rng.random() < 0.15:
            # Someone else's connection drops in the very step this
            # request finished in: if it released that request, it dies
            # before it can ask again.
            self.rng.choice(others).cancel()
        return response

    async def request(self, message):
        rng = self.rng
        await asyncio.sleep(rng.random() * 0.02)
        task = asyncio.ensure_future(
            self._handle(message[frames.LENGTH_PREFIX_BYTES:])
        )
        self.inflight.append(task)
        if rng.random() < 0.08:  # the connection drops some time later
            asyncio.get_running_loop().call_later(rng.random() * 0.4, task.cancel)
        try:
            response = await task
        except asyncio.CancelledError:
            if task.cancelled() and not asyncio.current_task().cancelling():
                raise TransportError("connection dropped") from None
            raise
        finally:
            self.inflight.remove(task)
        if rng.random() < 0.05:
            raise TransportError("response lost")
        await asyncio.sleep(rng.random() * 0.02)
        return response[frames.LENGTH_PREFIX_BYTES:]


async def chaotic_run(seed):
    rng = random.Random(seed)
    dep = build_deployment(6, seed=seed)
    dispatcher = SSIDispatcher(dep.ssi, partition_timeout=PARTITION_TIMEOUT)
    inflight = []

    def connect():
        return ChaosTransport(
            dispatcher.dispatch, random.Random(rng.getrandbits(32)), inflight
        )

    def policy():
        # holds of 0.1 .. 1 s: some expire mid-query, some never do
        return RetryPolicy(
            request_timeout=rng.choice([0.2, 0.6, 2.0]),
            max_retries=10_000, backoff_base=0.01, backoff_max=0.05,
        )

    fleet = FleetRunner(
        dep.tds_list,
        connect,
        histogram=make_histogram(dep),
        fault_plan=FaultPlan(failure_budget(rng.randrange(3))),
        policy=policy(),
        poll_interval=0.01,
        concurrency=rng.choice([1, 2, 8]),
        rng=random.Random(seed),
    )
    fleet_task = asyncio.create_task(fleet.run())
    querier = dep.make_querier()
    expected = sorted_rows(dep.reference_answer(GROUP_SQL))

    async def one_query(protocol, delay):
        await asyncio.sleep(delay)
        client = QuerierClient(connect(), policy(), rng=random.Random(rng.getrandbits(32)))
        query = querier.make_envelope(GROUP_SQL)
        await client.post_query(query, meta=QueryMeta(protocol))
        result = await client.wait_result(query.query_id, timeout=300.0)
        assert sorted_rows(querier.decrypt_result(result)) == expected, protocol
        return query.query_id

    try:
        query_ids = await asyncio.gather(*(
            one_query(rng.choice(["s_agg", "ed_hist"]), rng.random())
            for _ in range(3)
        ))
    finally:
        fleet.stop()
        await fleet_task
    for query_id in query_ids:
        assert dep.ssi.result_ready(query_id)
        assert dispatcher.coordinators[query_id].done()
    assert not dispatcher._live and not dispatcher._result_waiters
    return asyncio.get_running_loop().time()


def test_every_seeded_interleaving_ends_published_and_correct():
    virtual_seconds = []
    for seed in range(SEEDS):
        try:
            virtual_seconds.append(run_virtual(chaotic_run(seed)))
        except BaseException as exc:
            pytest.fail(f"interleaving seed {seed} failed: {exc!r}")
    # reassignments happen on partition deadlines, not on expired holds
    # or retries piling up: nothing took anywhere near the 300 s allowed
    assert max(virtual_seconds) < 60.0


# ---------------------------------------------------------------------- #
# nothing grows with history
# ---------------------------------------------------------------------- #
def test_after_200_queries_every_structure_is_as_small_as_after_one(monkeypatch):
    scheduled = []  # query id of every next_work call, in order
    next_work = QueryCoordinator.next_work

    def counting_next_work(coordinator, tds_id, now):
        scheduled.append(coordinator.query_id)
        return next_work(coordinator, tds_id, now)

    monkeypatch.setattr(QueryCoordinator, "next_work", counting_next_work)

    async def run():
        dep = build_deployment(8)
        dispatcher = SSIDispatcher(dep.ssi)
        connect = lambda: LoopbackTransport(dispatcher.dispatch)  # noqa: E731
        fleet = FleetRunner(dep.tds_list, connect, rng=random.Random(1))
        fleet_task = asyncio.create_task(fleet.run(until_queries_done=200))
        querier, client = dep.make_querier(), QuerierClient(connect())
        expected = sorted_rows(dep.reference_answer(GROUP_SQL))
        calls_per_query = []
        for _ in range(200):
            before = len(scheduled)
            query = querier.make_envelope(GROUP_SQL)
            await client.post_query(query, meta=QueryMeta("s_agg"))
            result = await client.wait_result(query.query_id)
            assert sorted_rows(querier.decrypt_result(result)) == expected
            # a request for work walked the live queries only
            assert set(scheduled[before:]) == {query.query_id}
            calls_per_query.append(len(scheduled) - before)
        await fleet_task
        assert len(fleet.stats.queries_completed) == 200
        assert calls_per_query[-1] <= calls_per_query[0] + 8
        # SSI side: the history is kept (stats, results), not walked
        assert len(dispatcher.coordinators) == 200
        assert not dispatcher._live and not dispatcher._result_waiters
        assert not dispatcher._parked_work  # the fleet is gone
        assert dep.ssi.active_queries() == []
        assert dep.ssi.collection_closed(query.query_id)
        # fleet side: a device holds what it has not been told is
        # finished — the last query or two, never the history
        assert fleet._contributed == {}
        assert all(len(held) <= 2 for held in fleet._held.values())

    run_virtual(run())
