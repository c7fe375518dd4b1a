"""What a connection costs and where its limits push back.

The TCP front end is an ``asyncio.Protocol`` on each side of the wire.
These tests pin its structure, not its speed: the two limits a peer
feels on its socket (handler slots, an unread write buffer), the idle
rule, and the number of Tasks and timers one request is allowed to make.
"""

import asyncio
import dataclasses
import time

import pytest

from repro.net import frames, ops
from repro.net.client import AsyncSSIClient
from repro.net.server import SSIDispatcher, SSIServer
from repro.net.transport import TCPTransport
from repro.obs import metrics as obs_metrics

from .conftest import run_async, sample
from .test_frames import make_envelope
from .test_long_poll import _requests, until
from .test_server_errors import RawPeer

EMPTY = ([], None, [])


def inflight():
    return sample("repro_ssi_inflight_requests")


@pytest.fixture(autouse=True)
def fresh_metrics():
    obs_metrics.REGISTRY.reset()
    yield


def await_work(corr, hold):
    w = frames.Writer()
    ops.AWAIT_WORK.write_request(w, (f"tds-{corr}", [], hold))
    return frames.pack_frame(frames.MSG_AWAIT_WORK, w.getvalue(), corr)


def ping(corr):
    return frames.pack_frame(frames.MSG_PING, b"", correlation_id=corr)


class TestHandlerSlots:
    def test_a_full_connection_stops_reading_until_a_handler_finishes(self):
        """Two slots, two parked requests, then a ping — all in one
        write.  The ping is served when a slot frees, not before."""

        async def run():
            dispatcher = SSIDispatcher()
            server = SSIServer(dispatcher, max_concurrent_requests=2)
            await server.start()
            try:
                peer = await RawPeer.connect(server)
                await peer.send(await_work(1, 0.4) + await_work(2, 5.0) + ping(3))
                await until(lambda: len(dispatcher._parked_work) == 2)
                with pytest.raises(TimeoutError):
                    await peer.frame(timeout=0.2)
                assert _requests("ping") == 0
                # the first hold runs out: its answer, then the ping's
                msg_type, corr, r = await peer.frame()
                assert (msg_type, corr) == (frames.MSG_OK, 1)
                assert tuple(ops.AWAIT_WORK.response.read(r)) == EMPTY
                msg_type, corr, _r = await peer.frame()
                assert (msg_type, corr) == (frames.MSG_OK, 3)
                assert len(dispatcher._parked_work) == 1  # 2 is still held
                await peer.close()
            finally:
                await server.close()

        run_async(run())

    def test_another_connection_is_not_held_up(self):
        async def run():
            dispatcher = SSIDispatcher()
            server = SSIServer(dispatcher, max_concurrent_requests=1)
            await server.start()
            try:
                full = await RawPeer.connect(server)
                await full.send(await_work(1, 5.0) + ping(2))
                await until(lambda: len(dispatcher._parked_work) == 1)
                other = await RawPeer.connect(server)
                await other.send(ping(9))
                msg_type, corr, _r = await other.frame()
                assert (msg_type, corr) == (frames.MSG_OK, 9)
                await full.close()
                await other.close()
            finally:
                await server.close()

        run_async(run())


class TestUnreadResponses:
    def test_a_peer_that_does_not_read_stalls_the_handlers_not_the_heap(self):
        """Twelve megabytes of answers for a peer that reads nothing:
        once the kernel's buffers are full the handlers stop at the
        paused transport with their slots, reading stops with them, and
        the write buffer holds one response over its high-water mark —
        not the backlog."""
        answer_bytes = 256 * 1024
        slots, requests = 4, 48

        async def run():
            dispatcher = SSIDispatcher()
            server = SSIServer(dispatcher, max_concurrent_requests=slots)
            await server.start()
            try:
                control = AsyncSSIClient(TCPTransport("127.0.0.1", server.port))
                await control.post_query(
                    dataclasses.replace(
                        make_envelope("big"), encrypted_query=b"c" * answer_bytes
                    )
                )
                await control.close()

                peer = await RawPeer.connect(server, rcvbuf=16 * 1024)
                w = frames.Writer()
                ops.FETCH_QUERY.write_request(w, ("big",))
                await peer.send(
                    b"".join(
                        frames.pack_frame(frames.MSG_FETCH_QUERY, w.getvalue(), corr)
                        for corr in range(1, requests + 1)
                    )
                )
                await until(lambda: len(server._connections) == 1)
                (connection,) = server._connections
                transport = connection._transport
                high_water = transport.get_write_buffer_limits()[1]
                await until(
                    lambda: inflight() == slots
                    and transport.get_write_buffer_size() > high_water,
                    timeout=10.0,
                )
                # nothing moves while nothing is read — once the kernel has
                # stopped growing its send buffer (loopback autotuning can
                # take a few more answers after the first stall)
                dispatched = None
                for _ in range(20):
                    seen, dispatched = dispatched, _requests("fetch_query")
                    if seen == dispatched:
                        break
                    await asyncio.sleep(0.2)
                assert _requests("fetch_query") == dispatched < requests
                assert inflight() == slots
                assert transport.get_write_buffer_size() <= (
                    high_water + answer_bytes + 1024
                )
                # the peer starts reading: every request is answered
                answered = set()
                for _ in range(requests):
                    msg_type, corr, _r = await peer.frame(timeout=10.0)
                    assert msg_type == frames.MSG_OK
                    answered.add(corr)
                assert answered == set(range(1, requests + 1))
                await peer.close()
            finally:
                await server.close()

        run_async(run())

    def test_close_does_not_wait_for_a_peer_that_does_not_read(self):
        async def run():
            server = SSIServer(SSIDispatcher())
            await server.start()
            peer = await RawPeer.connect(server, rcvbuf=16 * 1024)
            await peer.send(
                b"".join(
                    frames.pack_frame(frames.MSG_GET_STATS, b"", corr)
                    for corr in range(1, 2001)
                )
            )
            await until(lambda: len(server._connections) == 1)
            (connection,) = server._connections
            await until(lambda: connection._transport.get_write_buffer_size() > 0)
            started = time.monotonic()
            await server.close()
            assert time.monotonic() - started < 1.0
            assert server._connections == {}
            await peer.close()

        run_async(run())


class TestHandlerFailure:
    def test_a_handler_that_dies_hangs_up_instead_of_going_silent(self):
        """``dispatch`` answers its own failures; past it there is still
        the disk under a durable ack.  The peer must not be left waiting
        for a response nobody will write."""

        class DiskFull(SSIDispatcher):
            async def dispatch(self, body):
                raise OSError(28, "No space left on device")

        async def run():
            server = SSIServer(DiskFull())
            await server.start()
            try:
                peer = await RawPeer.connect(server)
                await peer.send(ping(1))
                assert await peer.hung_up()
                await until(lambda: server._connections == {})
                assert inflight() == 0
                assert await server.drain(timeout=1.0) is True
                await peer.close()
            finally:
                await server.close()

        run_async(run())


class TestIdleRule:
    def test_an_idle_connection_is_hung_up_and_a_busy_one_is_kept(self):
        """``read_timeout`` counts from the last byte either way, and
        not at all while a request is in flight: a device parked for
        longer than the timeout is waiting, not idle."""

        async def run():
            dispatcher = SSIDispatcher()
            server = SSIServer(dispatcher, read_timeout=0.15)
            await server.start()
            try:
                started = time.monotonic()
                idle = await RawPeer.connect(server)
                busy = await RawPeer.connect(server)
                await busy.send(await_work(1, 0.6))
                assert await idle.hung_up()
                assert 0.1 <= time.monotonic() - started < 0.5
                msg_type, corr, _r = await busy.frame()  # four timeouts later
                assert (msg_type, corr) == (frames.MSG_OK, 1)
                assert time.monotonic() - started >= 0.55
                # answered, then quiet: now it is idle too
                assert await busy.hung_up()
                assert time.monotonic() - started < 1.5
                await idle.close()
                await busy.close()
            finally:
                await server.close()

        run_async(run())

    def test_every_byte_restarts_the_clock(self):
        async def run():
            server = SSIServer(SSIDispatcher(), read_timeout=0.2)
            await server.start()
            try:
                peer = await RawPeer.connect(server)
                for corr in range(1, 5):
                    await asyncio.sleep(0.12)
                    await peer.send(ping(corr))
                    msg_type, got, _r = await peer.frame()
                    assert (msg_type, got) == (frames.MSG_OK, corr)
                assert await peer.hung_up()
                await peer.close()
            finally:
                await server.close()

        run_async(run())


class TestRequestCost:
    def test_a_ping_makes_one_task_and_one_timer(self):
        """The server's handler is the one Task (dispatch may park or
        wait for the disk) and the client's request timeout the one
        timer.  A reader task, a ``wait_for`` around either end's read
        or a per-frame idle timer would each show up here."""
        pings = 200

        async def run():
            server = SSIServer(SSIDispatcher())
            await server.start()
            client = AsyncSSIClient(TCPTransport("127.0.0.1", server.port))
            try:
                await client.ping()  # connect
                loop = asyncio.get_running_loop()
                made = {"tasks": 0, "timers": 0}

                def counting_factory(loop, coro, **kwargs):
                    made["tasks"] += 1
                    return asyncio.Task(coro, loop=loop, **kwargs)

                call_at = loop.call_at

                def counting_call_at(when, callback, *args, **kwargs):
                    made["timers"] += 1
                    return call_at(when, callback, *args, **kwargs)

                loop.set_task_factory(counting_factory)
                loop.call_at = counting_call_at  # call_later goes through it
                try:
                    for _ in range(pings):
                        await client.ping()
                finally:
                    loop.set_task_factory(None)
                    del loop.call_at
                assert _requests("ping") == pings + 1
                assert made["tasks"] <= pings
                assert made["timers"] <= pings
            finally:
                await client.close()
                await server.close()

        run_async(run())
