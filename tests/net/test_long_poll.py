"""Waiting for work: ``await_work`` / ``await_result`` park and release.

The SSI hands work to waiting TDSs instead of being polled for it
(DESIGN §7 "Waiting for work").  These tests pin the rules over both
transports: a request with nothing to answer parks; the request that
changes the state it waits on releases it — exactly as many as there are
partitions to hand out, oldest first; an expired hold answers empty; a
release is never lost; deadlines (§3.2 reassignment, ``SIZE … SECONDS``)
keep their latency with every device parked; and a parked fleet neither
reads as a sick one nor blocks shutdown.
"""

import asyncio
import random
import time
from contextlib import asynccontextmanager
from types import SimpleNamespace

import pytest

from repro.core.messages import EncryptedPartial, EncryptedTuple
from repro.exceptions import TransportError, UnknownQueryError
from repro.net import frames
from repro.net import server as server_mod
from repro.net.client import AsyncSSIClient, QuerierClient, RetryPolicy, TDSClient
from repro.net.fleet import FaultPlan, FleetRunner
from repro.net.frames import QueryMeta
from repro.net.multiquery import MultiQueryRunner, QuerySpec
from repro.net.server import SSIDispatcher, SSIServer
from repro.net.transport import LoopbackTransport, TCPTransport
from repro.obs import metrics as obs_metrics
from repro.simulation.failures import failure_budget

from .conftest import (
    GROUP_SQL,
    build_deployment,
    make_histogram,
    run_async,
    sorted_rows,
)
from .golden.capture import envelope

KINDS = ["loopback", "tcp"]
EMPTY = ([], None, [])


@pytest.fixture(autouse=True)
def fresh_metrics():
    obs_metrics.REGISTRY.reset()
    yield


@asynccontextmanager
async def serving(kind, dispatcher):
    """Yields ``connect(window=32)``: a new transport to *dispatcher*."""
    if kind == "loopback":
        yield lambda window=32: LoopbackTransport(dispatcher.dispatch)
        return
    server = SSIServer(dispatcher)
    await server.start()
    transports = []

    def connect(window=32):
        transports.append(TCPTransport("127.0.0.1", server.port, window=window))
        return transports[-1]

    try:
        yield connect
    finally:
        for transport in transports:
            await transport.close()
        await server.close()


class TaskTransport(LoopbackTransport):
    """Runs each dispatch as its own task, as :class:`SSIServer` does per
    frame, so a test can kill a request the way a dropped connection
    does: by cancelling the task that handles it."""

    task = None

    async def request(self, message):
        self.task = asyncio.ensure_future(
            self._dispatch(message[frames.LENGTH_PREFIX_BYTES:])
        )
        return (await self.task)[frames.LENGTH_PREFIX_BYTES:]


async def until(condition, timeout=3.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition not reached"
        await asyncio.sleep(0.005)


def parked_gauge():
    return obs_metrics.REGISTRY.snapshot()["repro_ssi_parked_requests"][()]


async def open_sagg_query(control, query_id, tuples, **size):
    """A fleet-mode S_Agg query holding *tuples* ciphertexts, three to a
    partition, its collection still open."""
    await control.post_query(
        envelope(query_id, **size), meta=QueryMeta("s_agg", {"alpha": 3.0})
    )
    await control.submit_tuples_batch(
        query_id, [EncryptedTuple(b"t-%d" % i, None) for i in range(tuples)]
    )


# ---------------------------------------------------------------------- #
# the two rows, request by request
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", KINDS)
class TestParkAndRelease:
    def test_parks_then_is_answered_by_a_post(self, kind):
        async def run():
            dispatcher = SSIDispatcher()
            async with serving(kind, dispatcher) as connect:
                device = TDSClient(connect())
                control = AsyncSSIClient(connect())
                before = parked_gauge()
                waiting = asyncio.create_task(device.await_work("tds-0", [], 5.0))
                await until(lambda: len(dispatcher._parked_work) == 1)
                assert parked_gauge() == before + 1
                await asyncio.sleep(0.05)
                assert not waiting.done()
                await control.post_query(envelope("q1"), meta=QueryMeta("s_agg"))
                queries, unit, done = await asyncio.wait_for(waiting, 2.0)
                assert [(e.query_id, m.protocol) for e, m in queries] == [
                    ("q1", "s_agg")
                ]
                assert unit is None and done == []
                assert parked_gauge() == before
                # a query the device holds is not offered again: it parks
                again = asyncio.create_task(device.await_work("tds-0", ["q1"], 5.0))
                await until(lambda: len(dispatcher._parked_work) == 1)
                again.cancel()
                await asyncio.gather(again, return_exceptions=True)
                # over TCP the SSI only learns it when the connection goes
                await device.close()
                await until(lambda: not dispatcher._parked_work)

        run_async(run())

    def test_driver_mode_and_personal_posts_release_nobody(self, kind):
        async def run():
            dispatcher = SSIDispatcher()
            async with serving(kind, dispatcher) as connect:
                device, control = TDSClient(connect()), AsyncSSIClient(connect())
                waiting = asyncio.create_task(device.await_work("tds-0", [], 0.3))
                await until(lambda: len(dispatcher._parked_work) == 1)
                await control.post_query(envelope("q-driver"))
                await control.post_query(
                    envelope("q-personal"), "tds-9", QueryMeta("s_agg")
                )
                # neither is the crowd's to contribute to through the fleet
                assert tuple(await waiting) == EMPTY

        run_async(run())

    def test_a_round_of_three_partitions_releases_exactly_three(self, kind):
        async def run():
            dispatcher = SSIDispatcher()
            async with serving(kind, dispatcher) as connect:
                control = AsyncSSIClient(connect())
                await open_sagg_query(control, "q1", tuples=9)
                devices = [TDSClient(connect()) for _ in range(16)]
                waiting = []
                for index, device in enumerate(devices):
                    waiting.append(asyncio.create_task(
                        device.await_work(f"tds-{index}", ["q1"], 5.0)
                    ))
                    # one at a time, so "oldest" is well defined
                    await until(lambda: len(dispatcher._parked_work) == index + 1)
                ok_before = _requests("await_work")
                await control.close_collection("q1")
                await until(lambda: sum(task.done() for task in waiting) >= 3)
                await asyncio.sleep(0.1)
                answered = [task for task in waiting if task.done()]
                # exactly three answers left, to the three oldest
                assert answered == waiting[:3]
                assert _requests("await_work") == ok_before + 3
                assert len(dispatcher._parked_work) == 13
                units = [task.result()[1] for task in answered]
                assert sorted(unit.partition_id for unit in units) == [0, 1, 2]
                assert {unit.kind for unit in units} == {frames.WORK_FOLD}
                # the submission that opens the next round releases one more
                for index, unit in enumerate(units):
                    await devices[index].submit_partition_result(
                        "q1", unit.partition_id, f"tds-{index}",
                        partials=[EncryptedPartial(b"p-%d" % index, None)],
                    )
                await until(lambda: waiting[3].done())
                await asyncio.sleep(0.05)
                assert [task.done() for task in waiting[3:]] == [True] + [False] * 12
                assert waiting[3].result()[1].partition_id == 3
                for task in waiting[4:]:
                    task.cancel()
                await asyncio.gather(*waiting[4:], return_exceptions=True)

        run_async(run())

    def test_an_expired_hold_answers_empty(self, kind):
        async def run():
            dispatcher = SSIDispatcher()
            async with serving(kind, dispatcher) as connect:
                device = TDSClient(connect())
                started = time.monotonic()
                assert tuple(await device.await_work("tds-0", [], 0.1)) == EMPTY
                assert 0.09 <= time.monotonic() - started < 1.0
                assert tuple(await device.await_work("tds-0", [], 0.0)) == EMPTY
                assert tuple(await device.await_work("tds-0", [], -1.0)) == EMPTY
                assert not dispatcher._parked_work

        run_async(run())

    def test_finished_and_unknown_ids_ride_in_done_and_answer_at_once(self, kind):
        async def run():
            dispatcher = SSIDispatcher()
            async with serving(kind, dispatcher) as connect:
                control, device = AsyncSSIClient(connect()), TDSClient(connect())
                await open_sagg_query(control, "q1", tuples=0)
                await open_sagg_query(control, "q2", tuples=1)
                await control.close_collection("q1")
                # whoever asks next finds the empty collection and publishes
                assert tuple(await control.await_work("tds-x", ["q2"], 0.0)) == EMPTY
                assert dispatcher.ssi.result_ready("q1")
                queries, unit, done = await asyncio.wait_for(
                    device.await_work("tds-0", ["q1", "q2", "q-lost"], 5.0), 1.0
                )
                assert (queries, unit, sorted(done)) == ([], None, ["q-lost", "q1"])

        run_async(run())

    def test_await_result_parks_until_publication(self, kind):
        async def run():
            dispatcher = SSIDispatcher()
            async with serving(kind, dispatcher) as connect:
                control, querier = AsyncSSIClient(connect()), QuerierClient(connect())
                with pytest.raises(UnknownQueryError):
                    await querier.await_result("q-missing", 1.0)
                await control.post_query(envelope("q1"), meta=QueryMeta("basic"))
                await control.submit_tuples("q1", [EncryptedTuple(b"t", None)])
                assert await querier.await_result("q1", 0.05) is None
                assert dispatcher._result_waiters == {}
                waiting = asyncio.create_task(querier.wait_result("q1", timeout=10.0))
                await until(lambda: "q1" in dispatcher._result_waiters)
                # finish_query, with a look in between
                await control.close_collection("q1")
                _, unit, _ = await control.await_work("tds-x", ["q1"], 0.0)
                await asyncio.sleep(0.05)
                assert not waiting.done()
                await control.submit_partition_result(
                    "q1", unit.partition_id, "tds-x", rows=[b"row"]
                )
                result = await asyncio.wait_for(waiting, 1.0)
                assert result.encrypted_rows == (b"row",)
                assert dispatcher._result_waiters == {}

        run_async(run())

    def test_wait_result_times_out_on_its_own_deadline(self, kind):
        async def run():
            async with serving(kind, SSIDispatcher()) as connect:
                control = AsyncSSIClient(connect())
                querier = QuerierClient(connect(), RetryPolicy(request_timeout=0.2))
                await control.post_query(envelope("q1"))
                started = time.monotonic()
                with pytest.raises(Exception, match="not published within"):
                    await querier.wait_result("q1", timeout=0.35)
                # several holds of 0.1 s were re-armed on the way
                assert 0.3 <= time.monotonic() - started < 1.5

        run_async(run())


def _requests(name, outcome="ok"):
    samples = obs_metrics.REGISTRY.snapshot().get("repro_ssi_requests_total", {})
    return samples.get((("msg_type", name), ("outcome", outcome)), 0)


def _request_names():
    samples = obs_metrics.REGISTRY.snapshot().get("repro_ssi_requests_total", {})
    return {dict(key)["msg_type"] for key, count in samples.items() if count}


# ---------------------------------------------------------------------- #
# no wake-up is lost
# ---------------------------------------------------------------------- #
class TestLostRelease:
    def test_a_released_request_that_dies_hands_its_release_on(self):
        """The exact window: released, then cancelled (its connection
        dropped) before it ran again."""

        async def run():
            dispatcher = SSIDispatcher()
            connect = lambda: LoopbackTransport(dispatcher.dispatch)  # noqa: E731
            control = AsyncSSIClient(connect())
            await open_sagg_query(control, "q1", tuples=3)
            doomed = TaskTransport(dispatcher.dispatch)
            first = asyncio.create_task(TDSClient(doomed).await_work("a", ["q1"], 5.0))
            await until(lambda: len(dispatcher._parked_work) == 1)
            second = asyncio.create_task(TDSClient(connect()).await_work("b", ["q1"], 5.0))
            await until(lambda: len(dispatcher._parked_work) == 2)
            # one partition becomes assignable behind the dispatcher's
            # back; release one request for it and kill that request
            # before the loop runs it
            dispatcher.ssi.close_collection("q1")
            server_mod._release(dispatcher._parked_work, 1)
            doomed.task.cancel()
            _, unit, _ = await asyncio.wait_for(second, 1.0)
            assert unit is not None and unit.partition_id == 0
            assert not dispatcher._parked_work
            first.cancel()
            await asyncio.gather(first, return_exceptions=True)

        run_async(run())

    def test_an_unreleased_request_that_dies_just_leaves_the_line(self):
        async def run():
            dispatcher = SSIDispatcher()
            connect = lambda: LoopbackTransport(dispatcher.dispatch)  # noqa: E731
            control = AsyncSSIClient(connect())
            await open_sagg_query(control, "q1", tuples=3)
            tasks = [
                asyncio.create_task(TDSClient(connect()).await_work(name, ["q1"], 5.0))
                for name in "abc"
            ]
            await until(lambda: len(dispatcher._parked_work) == 3)
            tasks[0].cancel()
            await until(lambda: len(dispatcher._parked_work) == 2)
            await control.close_collection("q1")
            _, unit, _ = await asyncio.wait_for(tasks[1], 1.0)
            assert unit is not None
            await asyncio.sleep(0.05)
            assert not tasks[2].done()
            tasks[2].cancel()

        run_async(run())

    def test_over_tcp_a_dropped_connection_costs_at_most_the_partition_timeout(self):
        async def run():
            dispatcher = SSIDispatcher(partition_timeout=0.3)
            async with serving("tcp", dispatcher) as connect:
                control = AsyncSSIClient(connect())
                await open_sagg_query(control, "q1", tuples=3)
                doomed = TDSClient(connect(), RetryPolicy(max_retries=0))
                first = asyncio.create_task(doomed.await_work("a", ["q1"], 5.0))
                await until(lambda: len(dispatcher._parked_work) == 1)
                second = asyncio.create_task(
                    TDSClient(connect()).await_work("b", ["q1"], 5.0)
                )
                await until(lambda: len(dispatcher._parked_work) == 2)
                started = time.monotonic()
                await control.close_collection("q1")
                await doomed.transport.drop()
                # whether the drop beat the answer or not, the partition
                # reaches the other device: handed on, or reassigned
                _, unit, _ = await asyncio.wait_for(second, 2.0)
                assert unit is not None and unit.partition_id == 0
                assert time.monotonic() - started < 0.3 + 1.0
                await asyncio.gather(first, return_exceptions=True)

        run_async(run())


# ---------------------------------------------------------------------- #
# a whole fleet, parked
# ---------------------------------------------------------------------- #
#: request_timeout 20 s => devices ask for the server's longest hold: a
#: test that finishes in a second or two did not wait for one to expire
LONG_HOLD = RetryPolicy(request_timeout=20.0, backoff_base=0.01)


@asynccontextmanager
async def fleet_stack(
    kind, num_tds=8, *, policy=LONG_HOLD, fault_plan=None, partition_timeout=5.0
):
    dep = build_deployment(num_tds)
    dispatcher = SSIDispatcher(dep.ssi, partition_timeout=partition_timeout)
    async with serving(kind, dispatcher) as connect:
        fleet = FleetRunner(
            dep.tds_list,
            connect,
            histogram=make_histogram(dep),
            fault_plan=fault_plan,
            policy=policy,
            poll_interval=0.01,
            rng=random.Random(5),
        )
        task = asyncio.create_task(fleet.run())
        try:
            await until(lambda: len(dispatcher._parked_work) == num_tds)
            yield SimpleNamespace(
                dep=dep, dispatcher=dispatcher, connect=connect, fleet=fleet
            )
        finally:
            fleet.stop()
            await task


async def run_query(stack, sql, protocol="s_agg", **params):
    querier = stack.dep.make_querier()
    query = querier.make_envelope(sql)
    client = QuerierClient(stack.connect(), LONG_HOLD)
    try:
        await client.post_query(query, meta=QueryMeta(protocol, params))
        result = await client.wait_result(query.query_id, timeout=30.0)
    finally:
        await client.close()
    return query.query_id, sorted_rows(querier.decrypt_result(result))


@pytest.mark.parametrize("kind", KINDS)
class TestParkedFleet:
    def test_a_query_runs_without_any_poll(self, kind):
        async def run():
            async with fleet_stack(kind) as stack:
                dispatcher = stack.dispatcher
                told = []  # parked requests that a query's finish released

                def retire(query_id, retire=dispatcher._retire):
                    parked = list(dispatcher._parked_work)
                    retire(query_id)
                    told.extend(future for future in parked if future.done())

                dispatcher._retire = retire
                started = time.monotonic()
                query_id, rows = await run_query(stack, GROUP_SQL)
                assert time.monotonic() - started < 3.0
                assert rows == sorted_rows(stack.dep.reference_answer(GROUP_SQL))
                assert _request_names() == {
                    "post_query", "await_work", "submit_tuples", "close_collection",
                    "submit_partition_result", "await_result",
                }
                # the device that sent the last partition learnt it from
                # its next answer; nobody was woken to be told
                await until(lambda: stack.fleet.stats.queries_completed == {query_id})
                await until(lambda: len(stack.dispatcher._parked_work) == 8)
                # (how many were woken for a partition someone else took,
                # and so asked again, is the transport's timing)
                holding = [query_id in held for held in stack.fleet._held.values()]
                assert 1 <= holding.count(False)
                assert told == []
                assert stack.fleet.stats.contributions == 8
                # the others learn from the next answer they get anyway
                second, rows = await run_query(stack, GROUP_SQL)
                assert rows == sorted_rows(stack.dep.reference_answer(GROUP_SQL))
                await until(lambda: len(stack.dispatcher._parked_work) == 8)
                assert not any(query_id in held for held in stack.fleet._held.values())
                assert stack.fleet.stats.queries_completed == {query_id, second}

        run_async(run())

    @pytest.mark.parametrize("mode", ["drop", "stall"])
    def test_a_silent_device_is_replaced_on_the_partition_deadline(self, kind, mode):
        """§3.2: 'resends that partition to another available TDS after
        a given timeout' — with every other device parked on a hold
        thirty times longer than that timeout."""

        async def run():
            plan = FaultPlan(failure_budget(2), mode=mode, stall_seconds=0.4)
            async with fleet_stack(kind, fault_plan=plan) as stack:
                started = time.monotonic()
                query_id, rows = await run_query(
                    stack, GROUP_SQL, partition_timeout=0.3
                )
                elapsed = time.monotonic() - started
                assert rows == sorted_rows(stack.dep.reference_answer(GROUP_SQL))
                stats = stack.dispatcher.coordinators[query_id].stats
                assert stack.fleet.stats.injected_faults == 2
                assert stats.reassigned_partitions >= 1
                # two faults, back to back at worst: two deadlines plus slack
                assert 0.3 <= elapsed < 2 * 0.3 + 1.5

        run_async(run())

    def test_a_size_seconds_query_closes_on_its_deadline(self, kind):
        async def run():
            async with fleet_stack(kind) as stack:
                started = time.monotonic()
                _, rows = await run_query(stack, GROUP_SQL + " SIZE 1 SECONDS")
                elapsed = time.monotonic() - started
                # all eight contributed long before the second was up
                assert rows == sorted_rows(stack.dep.reference_answer(GROUP_SQL))
                assert 1.0 <= elapsed < 2.5

        run_async(run())

    def test_an_idle_fleet_re_arms_when_its_hold_expires(self, kind):
        async def run():
            policy = RetryPolicy(request_timeout=0.4, backoff_base=0.01)
            async with fleet_stack(kind, num_tds=4, policy=policy) as stack:
                before = _requests("await_work")
                await asyncio.sleep(0.7)
                rearmed = _requests("await_work") - before
                # a hold of 0.2 s: three or four empty answers per device
                assert 4 * 2 <= rearmed <= 4 * 5
                assert stack.fleet.stats.contributions == 0
                await until(lambda: len(stack.dispatcher._parked_work) == 4)

        run_async(run())

    def test_a_device_handed_a_partition_of_a_query_it_never_saw(self, kind):
        async def run():
            dep = build_deployment(8)
            dispatcher = SSIDispatcher(dep.ssi)
            async with serving(kind, dispatcher) as connect:
                # seven devices contribute and the collection closes ...
                early = FleetRunner(
                    dep.tds_list[:7], connect, policy=LONG_HOLD, rng=random.Random(1)
                )
                early_task = asyncio.create_task(early.run())
                await until(lambda: len(dispatcher._parked_work) == 7)
                querier = dep.make_querier()
                query = querier.make_envelope(GROUP_SQL)
                client = QuerierClient(connect(), LONG_HOLD)
                await client.post_query(query, meta=QueryMeta("s_agg"))
                await client.wait_result(query.query_id, timeout=30.0)
                early.stop()
                await early_task
                # ... then a second query, closed before the eighth connects
                query = querier.make_envelope(GROUP_SQL)
                await client.post_query(query, meta=QueryMeta("s_agg"))
                await client.submit_tuples(
                    query.query_id,
                    dep.tds_list[0].collect_for_sagg(query)
                    + dep.tds_list[1].collect_for_sagg(query),
                )
                await client.close_collection(query.query_id)
                late = FleetRunner(
                    dep.tds_list[7:], connect, policy=LONG_HOLD, rng=random.Random(2)
                )
                late_task = asyncio.create_task(late.run(until_queries_done=1))
                result = await client.wait_result(query.query_id, timeout=30.0)
                await asyncio.wait_for(late_task, 5.0)
                assert late.stats.contributions == 0
                assert late.stats.partitions_processed >= 2
                assert _requests("fetch_query") == 1
                assert sum(
                    row["n"] for row in querier.decrypt_result(result)
                ) == 2
                await client.close()

        run_async(run())


class TestWindow:
    def test_more_queries_in_flight_than_window_slots_still_complete(self):
        """48 lanes on a 32-slot connection: every parked await_result
        holds a slot, so lanes wait for one — slower, not stuck."""

        async def run():
            policy = RetryPolicy(request_timeout=1.0, backoff_base=0.01)
            async with fleet_stack("tcp") as stack:
                client = QuerierClient(stack.connect(window=32), policy)
                runner = MultiQueryRunner(
                    stack.dep.make_querier(), client, concurrency=48,
                    result_timeout=60.0,
                )
                stats = await runner.run([QuerySpec(GROUP_SQL)] * 48)
                expected = sorted_rows(stack.dep.reference_answer(GROUP_SQL))
                assert len(stats.outcomes) == 48
                assert all(sorted_rows(o.rows) == expected for o in stats.outcomes)
                assert len(stack.fleet.stats.queries_completed) == 48
                await client.close()

        run_async(run(), timeout=120.0)


# ---------------------------------------------------------------------- #
# parking is not sickness, and does not block shutdown
# ---------------------------------------------------------------------- #
class TestParkedTimeIsNotHandlingTime:
    def test_request_seconds_leaves_the_parked_time_out(self):
        async def run():
            dispatcher = SSIDispatcher()
            device = TDSClient(LoopbackTransport(dispatcher.dispatch))
            family = "repro_ssi_request_seconds"
            key = (("msg_type", "await_work"),)
            before = obs_metrics.REGISTRY.snapshot().get(family, {}).get(
                key, {"count": 0, "sum": 0.0}
            )
            await asyncio.gather(*(device.await_work("t", [], 0.2) for _ in range(5)))
            after = obs_metrics.REGISTRY.snapshot()[family][key]
            assert after["count"] - before["count"] == 5
            # a second parked in total, milliseconds handled
            assert after["sum"] - before["sum"] < 0.1

        run_async(run())


class TestDrain:
    def test_drain_answers_parked_requests_and_parks_none_after(self):
        async def run():
            dispatcher = SSIDispatcher()
            server = SSIServer(dispatcher)
            await server.start()
            clients = [TDSClient(TCPTransport("127.0.0.1", server.port)) for _ in range(6)]
            querier = QuerierClient(TCPTransport("127.0.0.1", server.port))
            await querier.post_query(envelope("q1"))
            waiting = [
                asyncio.create_task(client.await_work(f"tds-{i}", [], 10.0))
                for i, client in enumerate(clients)
            ]
            waiting.append(asyncio.create_task(querier.await_result("q1", 10.0)))
            await until(lambda: len(dispatcher._parked_work) == 6)
            await until(lambda: "q1" in dispatcher._result_waiters)
            started = time.monotonic()
            assert await server.drain(timeout=5.0) is True
            assert time.monotonic() - started < 1.0
            answers = await asyncio.wait_for(asyncio.gather(*waiting), 1.0)
            assert [tuple(a) for a in answers[:6]] == [EMPTY] * 6
            assert answers[6] is None
            # connections stay up while draining; nothing parks any more
            started = time.monotonic()
            assert tuple(await clients[0].await_work("tds-0", [], 10.0)) == EMPTY
            assert await querier.await_result("q1", 10.0) is None
            assert time.monotonic() - started < 1.0
            for client in (*clients, querier):
                await client.close()
            await server.close()

        run_async(run())

    def test_close_releases_parked_hangs_up_peers_and_waits_for_handlers(self):
        async def run():
            dispatcher = SSIDispatcher()
            server = SSIServer(dispatcher)
            await server.start()
            device = TDSClient(
                TCPTransport("127.0.0.1", server.port),
                RetryPolicy(max_retries=0),
            )
            parked = asyncio.create_task(device.await_work("tds-0", [], 10.0))
            await until(lambda: len(dispatcher._parked_work) == 1)
            # a peer that never hangs up by itself
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            await until(lambda: len(server._connections) == 2)
            started = time.monotonic()
            await server.close()
            # nothing to poll for: the handlers are gone when close() returns
            assert server._connections == {}
            assert not dispatcher._parked_work
            assert await asyncio.wait_for(reader.read(), 1.0) == b""
            try:
                assert tuple(await asyncio.wait_for(parked, 1.0)) == EMPTY
            except TransportError:
                pass  # the hang-up may overtake the released answer
            assert time.monotonic() - started < 1.0
            writer.close()
            await device.close()

        run_async(run())
