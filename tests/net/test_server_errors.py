"""Typed wire errors, traceback hygiene and retries.

The satellite requirements: a duplicate or unknown ``query_id`` must
surface as a *typed* wire-level error (and the same exception type the
in-process SSI raises) on both the loopback and the TCP path, and no
Python traceback may ever cross the transport.  And the remote surface
is the op table's wire rows, nothing else: the SSI's own steps and the
rows that duplicated another, which used to have opcodes, are an
unknown operation to any peer.
"""

import asyncio
import random
import socket

import pytest

from repro.exceptions import (
    DuplicateQueryError,
    ProtocolError,
    ResultNotReadyError,
    TransportError,
    UnknownQueryError,
    UnsupportedVersionError,
)
from repro.net import frames, ops
from repro.net.client import AsyncSSIClient, QuerierClient, RetryPolicy
from repro.net.fleet import FleetRunner
from repro.net.frames import QueryMeta
from repro.net.server import SSIDispatcher, SSIServer
from repro.net.transport import LoopbackTransport, TCPTransport, Transport

from .conftest import GROUP_SQL, build_deployment, run_async, sorted_rows
from .test_frames import make_envelope
from .test_keyed_writes import backing
from .test_long_poll import serving, until


def loopback_client(dispatcher, **policy_kw):
    policy = RetryPolicy(**policy_kw) if policy_kw else None
    return AsyncSSIClient(
        LoopbackTransport(dispatcher.dispatch), policy, rng=random.Random(1)
    )


class RawPeer:
    """A peer that writes what it likes to an :class:`SSIServer` and
    reads the frames it gets back."""

    @classmethod
    async def connect(cls, server, rcvbuf=None):
        """*rcvbuf* fixes the kernel's receive buffer, which otherwise
        grows to hold megabytes the peer has not read."""
        sock = socket.socket()
        if rcvbuf is not None:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        sock.setblocking(False)
        await asyncio.get_running_loop().sock_connect(
            sock, ("127.0.0.1", server.port)
        )
        peer = cls()
        peer.reader, peer.writer = await asyncio.open_connection(sock=sock)
        peer.cutter = frames.FrameCutter()
        return peer

    async def send(self, data):
        self.writer.write(data)
        await self.writer.drain()

    async def frame(self, timeout=5.0):
        """The next response as ``(msg_type, correlation id, payload reader)``."""
        async with asyncio.timeout(timeout):
            while (body := self.cutter.cut()) is None:
                data = await self.reader.read(65536)
                assert data, "the server hung up"
                self.cutter.feed(data)
        msg_type, corr, _exts, reader = frames.unpack_frame_ext(body)
        return msg_type, corr, reader

    async def hung_up(self, timeout=5.0):
        async with asyncio.timeout(timeout):
            return await self.reader.read(1) == b""

    async def close(self):
        self.writer.close()
        await self.writer.wait_closed()


async def tcp_fixture(**policy_kw):
    """(server, client) pair over a real localhost socket."""
    server = SSIServer(SSIDispatcher())
    await server.start()
    policy = RetryPolicy(**policy_kw) if policy_kw else None
    client = AsyncSSIClient(
        TCPTransport("127.0.0.1", server.port), policy, rng=random.Random(1)
    )
    return server, client


class TestTypedErrors:
    def test_duplicate_query_loopback(self):
        async def run():
            client = loopback_client(SSIDispatcher())
            await client.post_query(make_envelope("q1"))
            with pytest.raises(DuplicateQueryError):
                await client.post_query(make_envelope("q1"))

        run_async(run())

    def test_duplicate_query_tcp(self):
        async def run():
            server, client = await tcp_fixture()
            try:
                await client.post_query(make_envelope("q1"))
                with pytest.raises(DuplicateQueryError):
                    await client.post_query(make_envelope("q1"))
            finally:
                await client.close()
                await server.close()

        run_async(run())

    def test_unknown_query_loopback(self):
        async def run():
            client = loopback_client(SSIDispatcher())
            with pytest.raises(UnknownQueryError):
                await client.fetch_query("never-posted")
            with pytest.raises(UnknownQueryError):
                await client.submit_tuples_batch("never-posted", [])

        run_async(run())

    def test_unknown_query_tcp(self):
        async def run():
            server, client = await tcp_fixture()
            try:
                with pytest.raises(UnknownQueryError):
                    await client.fetch_query("never-posted")
            finally:
                await client.close()
                await server.close()

        run_async(run())

    def test_result_not_ready(self):
        # the one-shot read of an unpublished result is the empty answer
        async def run():
            client = loopback_client(SSIDispatcher())
            await client.post_query(make_envelope("q1"))
            assert await client.await_result("q1", 0.0) is None
            with pytest.raises(UnknownQueryError):
                await client.await_result("never-posted", 0.0)

        run_async(run())

    def test_error_messages_never_contain_tracebacks(self):
        async def run():
            client = loopback_client(SSIDispatcher())
            await client.post_query(make_envelope("q1"))
            for exc_type, call in [
                (DuplicateQueryError, client.post_query(make_envelope("q1"))),
                (UnknownQueryError, client.fetch_query("nope")),
                (UnknownQueryError, client.await_result("nope", 0.0)),
            ]:
                with pytest.raises(exc_type) as info:
                    await call
                assert "Traceback" not in str(info.value)
                assert "File \"" not in str(info.value)

        run_async(run())

    def test_internal_errors_are_scrubbed(self):
        async def run():
            dispatcher = SSIDispatcher()
            secret = "secret-internal-detail-12345"

            def boom(*args, **kwargs):
                raise RuntimeError(secret)

            dispatcher.ssi.collected_count = boom
            client = loopback_client(dispatcher)
            with pytest.raises(ProtocolError) as info:
                await client.collected_count("q1")
            assert secret not in str(info.value)
            assert "internal server error" in str(info.value)

        run_async(run())


class TestWireDiscipline:
    def test_malformed_payload_is_typed(self):
        async def run():
            dispatcher = SSIDispatcher()
            transport = LoopbackTransport(dispatcher.dispatch)
            # A contribution whose payload is garbage.
            response = await transport.request(
                frames.pack_frame(frames.MSG_SUBMIT_TUPLES_BATCH, b"\xff\xff")
            )
            msg_type, _corr, _exts, reader = frames.unpack_frame_ext(response)
            assert msg_type == frames.MSG_ERROR
            assert reader.u8() == frames.ERR_MALFORMED

        run_async(run())

    def test_unknown_request_type(self):
        async def run():
            dispatcher = SSIDispatcher()
            transport = LoopbackTransport(dispatcher.dispatch)
            response = await transport.request(frames.pack_frame(0x3F, b""))
            msg_type, _corr, _exts, reader = frames.unpack_frame_ext(response)
            assert msg_type == frames.MSG_ERROR
            assert reader.u8() == frames.ERR_UNKNOWN_OP

        run_async(run())

    def test_version_mismatch_rejected_by_dispatcher(self):
        async def run():
            dispatcher = SSIDispatcher()
            body = bytes([99, frames.MSG_PING])
            response = await dispatcher.dispatch(body)
            msg_type, _corr, _exts, reader = frames.unpack_frame_ext(response[4:])
            assert msg_type == frames.MSG_ERROR
            assert reader.u8() == frames.ERR_UNSUPPORTED_VERSION
            assert "version" in reader.text()

        run_async(run())

    def test_previous_wire_version_is_refused_with_a_typed_error(self):
        """A well-formed v3 frame (no extension block) keeps its
        correlation id in the refusal, and the client raises the
        distinct exception instead of a generic malformed error."""

        async def v3_peer(body):
            return await SSIDispatcher().dispatch(bytes([3]) + body[1:6])

        async def run():
            dispatcher = SSIDispatcher()
            ping = frames.pack_frame(frames.MSG_PING, b"", correlation_id=41)
            response = await dispatcher.dispatch(b"\x03" + ping[5:10])
            msg_type, corr, _exts, reader = frames.unpack_frame_ext(response[4:])
            assert (msg_type, corr) == (frames.MSG_ERROR, 41)
            assert reader.u8() == frames.ERR_UNSUPPORTED_VERSION

            client = AsyncSSIClient(LoopbackTransport(v3_peer))
            with pytest.raises(UnsupportedVersionError, match="version 3"):
                await client.ping()
            assert client.retries == 0  # the same bytes would be refused again

        run_async(run())

    def test_a_v4_frame_is_answered_unsupported_version(self):
        """v4 had this header, extension block included, and laid out
        partials, rows, units and results per item: its frames are
        refused at the version byte, before any payload is read."""
        frame = bytearray(frames.pack_frame(frames.MSG_PING, b"", correlation_id=7))
        assert frame[frames.LENGTH_PREFIX_BYTES] == frames.PROTOCOL_VERSION == 5
        frame[frames.LENGTH_PREFIX_BYTES] = 4

        async def run():
            response = await SSIDispatcher().dispatch(bytes(frame[4:]))
            msg_type, corr, _exts, reader = frames.unpack_frame_ext(response[4:])
            assert (msg_type, corr) == (frames.MSG_ERROR, 7)
            assert reader.u8() == frames.ERR_UNSUPPORTED_VERSION
            assert "unsupported protocol version 4" in reader.text()

        run_async(run())

    def test_oversized_frame_over_tcp_answered_then_disconnected(self):
        async def run():
            server = SSIServer(SSIDispatcher())
            await server.start()
            try:
                peer = await RawPeer.connect(server)
                await peer.send(b"\xff\xff\xff\xff")  # 4 GiB declared frame
                msg_type, corr, r = await peer.frame()
                assert (msg_type, corr) == (frames.MSG_ERROR, 0)
                assert r.u8() == frames.ERR_TOO_LARGE
                assert await peer.hung_up()
                await peer.close()
            finally:
                await server.close()

        run_async(run())

    def test_undersized_frame_answered_malformed_then_disconnected(self):
        async def run():
            server = SSIServer(SSIDispatcher())
            await server.start()
            try:
                peer = await RawPeer.connect(server)
                # declared body of 1 byte: too short to hold version+type
                await peer.send(b"\x00\x00\x00\x01\x00")
                msg_type, corr, r = await peer.frame()
                assert (msg_type, corr) == (frames.MSG_ERROR, 0)
                assert r.u8() == frames.ERR_MALFORMED  # not ERR_TOO_LARGE
                assert await peer.hung_up()
                await peer.close()
            finally:
                await server.close()

        run_async(run())

    def test_a_frame_slower_than_the_read_timeout_is_still_one_frame(self):
        """With a request in flight — every device and querier has one
        parked — the per-frame read timeout used to be survivable, and
        when it fell between a prefix and its body the body was read as
        the next prefix: ``ERR_TOO_LARGE "peer declared a 68288512-byte
        frame"`` on id 0 and a hang-up, for a well-formed ``ping``."""

        async def run():
            dispatcher = SSIDispatcher()
            server = SSIServer(dispatcher, read_timeout=0.2)
            await server.start()
            try:
                peer = await RawPeer.connect(server)
                w = frames.Writer()
                ops.AWAIT_WORK.write_request(w, ("tds-0", [], 2.0))
                await peer.send(
                    frames.pack_frame(frames.MSG_AWAIT_WORK, w.getvalue(), 5)
                )
                await until(lambda: len(dispatcher._parked_work) == 1)
                ping = frames.pack_frame(frames.MSG_PING, b"", correlation_id=6)
                await peer.send(ping[:4])
                await asyncio.sleep(0.3)  # the old timeout fires in here
                await peer.send(ping[4:])
                msg_type, corr, _r = await peer.frame()
                assert (msg_type, corr) == (frames.MSG_OK, 6)
                # ... and the parked request is answered when its hold ends
                msg_type, corr, r = await peer.frame()
                assert (msg_type, corr) == (frames.MSG_OK, 5)
                assert tuple(ops.AWAIT_WORK.response.read(r)) == ([], None, [])
                await peer.close()
            finally:
                await server.close()

        run_async(run())

    def test_idle_read_timeout_disconnects(self):
        async def run():
            server = SSIServer(SSIDispatcher(), read_timeout=0.05)
            await server.start()
            try:
                peer = await RawPeer.connect(server)
                assert await peer.hung_up()  # after the timeout
                await peer.close()
            finally:
                await server.close()

        run_async(run())


class TestBackpressureAndRetry:
    def test_retry_backoff_is_deterministic_under_a_seed(self):
        class FlakyTransport(Transport):
            def __init__(self, failures):
                self.failures = failures

            async def request(self, message):
                if self.failures > 0:
                    self.failures -= 1
                    raise TransportError("injected")
                return frames.pack_frame(frames.MSG_OK, b"")[4:]

        async def delays_for(seed):
            delays = []

            async def capture(delay):
                delays.append(delay)

            client = AsyncSSIClient(
                FlakyTransport(3),
                RetryPolicy(max_retries=4, backoff_base=0.05),
                rng=random.Random(seed),
                sleep=capture,
            )
            await client.ping()
            assert client.retries == 3
            return delays

        first = run_async(delays_for(7))
        second = run_async(delays_for(7))
        other = run_async(delays_for(8))
        assert first == second  # same seed, same schedule
        assert first != other  # jitter is seed-dependent
        assert len(first) == 3
        # exponential shape: each base delay doubles, jitter <= 10%
        assert 0.05 <= first[0] <= 0.055
        assert 0.10 <= first[1] <= 0.11
        assert 0.20 <= first[2] <= 0.22

    def test_retries_exhausted_raises_transport_error(self):
        class DeadTransport(Transport):
            def __init__(self):
                self.attempts = 0

            async def request(self, message):
                self.attempts += 1
                raise TransportError("down")

        async def run():
            transport = DeadTransport()
            client = AsyncSSIClient(
                transport,
                RetryPolicy(max_retries=2, backoff_base=0.0),
                rng=random.Random(0),
            )
            with pytest.raises(TransportError):
                await client.ping()
            assert transport.attempts == 3  # initial try + 2 retries

        run_async(run())

    def test_tcp_reconnect_after_drop(self):
        async def run():
            server, client = await tcp_fixture(backoff_base=0.001)
            try:
                await client.ping()
                assert isinstance(client.transport, TCPTransport)
                await client.transport.drop()
                await client.ping()  # lazily reconnects
                await client.post_query(make_envelope("q1"))
                envelope, __ = await client.fetch_query("q1")
                assert envelope.query_id == "q1"
            finally:
                await client.close()
                await server.close()

        run_async(run())


#: retired opcode -> the request frame the last build that served it
#: sent (its golden conversation: client seed 7, queries "q-driver" and
#: "q-fleet"), the state-changing ones first.  Each is sent with this
#: build's version byte, so that it reaches the opcode lookup.
RETIRED_REQUESTS = {
    # the per-item submission: ct-1 and ct-2 (tagged) into q-driver
    0x04: (
        "0000004e040400000000000000001066326137346465343532653662343338"
        "000000000000000300000008712d64726976657200000002000000000463742d"
        "3100000000000463742d320100000003746167"
    ),
    # publish_result
    0x0D: "00000013040d000000000000000008712d647269766572",
    # take_partials
    0x0A: "00000013040a000000000000000008712d647269766572",
    # store_result_rows
    0x0C: (
        "00000045040c0000000000000000106632613734646534353265366234333800"
        "0000000000000600000008712d6472697665720000000200000005726f772d31"
        "00000005726f772d32"
    ),
    # submit_partials
    0x09: (
        "0000004b04090000000000000000106632613734646534353265366234333800"
        "0000000000000500000008712d647269766572000000020100000003702d3100"
        "0100000003702d3201000000026731"
    ),
    # covering_result, partial_count, result_ready
    0x08: "000000130408000000000000000008712d647269766572",
    0x0B: "00000013040b000000000000000008712d647269766572",
    0x0E: "00000013040e000000000000000008712d647269766572",
    # evaluate_size, 1.5 s elapsed
    0x06: "0000001b0406000000000000000008712d6472697665723ff8000000000000",
    # active_queries
    0x03: "0000000704030000000000",
    # the one-shot partition probe, for "tds-a"
    0x10: "0000001b0410000000000000000007712d666c656574000000057464732d61",
    # the one-shot result read
    0x0F: "00000013040f000000000000000008712d647269766572",
    # hello: protocol version 4, capability bits 0x0f
    0x15: "0000000c04150000000000040000000f",
}


@pytest.mark.parametrize("stored", [False, True], ids=["memory", "store"])
@pytest.mark.parametrize("kind", ["loopback", "tcp"])
class TestRetiredOpcodes:
    def test_a_stranger_cannot_publish_drain_or_fill_a_query(
        self, kind, stored, tmp_path
    ):
        """Two fleet-mode queries in collection, a querier parked on
        each, and a third connection that sends what used to publish,
        drain and fill them — and the rows that said again what another
        row says (a per-item submission, a one-shot result read, a
        capability report).  When ``publish_result`` had an opcode it
        handed the querier an empty result for a query whose
        collection was still open."""

        def state(dispatcher, store):
            ssi = dispatcher.ssi
            return (
                {
                    query_id: (
                        ssi.result_ready(query_id),
                        storage.collection_closed,
                        len(storage.collected_blocks),
                        len(storage.partials),
                        len(storage.result_rows),
                    )
                    for query_id, storage in ssi.storage_map().items()
                },
                dispatcher.idempotency.snapshot(),
                store.last_seq if store is not None else None,
            )

        async def run():
            dep = build_deployment()
            querier = dep.make_querier()
            async with backing(stored, tmp_path) as (dispatcher, store):
                async with serving(kind, dispatcher) as connect:
                    client = QuerierClient(connect())
                    waiting = {}
                    for query_id in ("q-driver", "q-fleet"):
                        await client.post_query(
                            querier.make_envelope(GROUP_SQL, query_id=query_id),
                            meta=QueryMeta("s_agg"),
                        )
                        waiting[query_id] = asyncio.create_task(
                            client.wait_result(query_id)
                        )
                    await until(lambda: len(dispatcher._result_waiters) == 2)
                    before = state(dispatcher, store)
                    stranger = connect()
                    for opcode, request in RETIRED_REQUESTS.items():
                        sent = bytearray.fromhex(request)
                        assert sent[5] == opcode
                        sent[4] = frames.PROTOCOL_VERSION
                        sent = bytes(sent)
                        response = await stranger.request(sent)
                        msg_type, _, _, reader = frames.unpack_frame_ext(response)
                        assert msg_type == frames.MSG_ERROR, hex(opcode)
                        assert reader.u8() == frames.ERR_UNKNOWN_OP, hex(opcode)
                        assert state(dispatcher, store) == before, hex(opcode)
                        assert len(dispatcher._result_waiters) == 2, hex(opcode)
                        assert not any(task.done() for task in waiting.values())
                    # ... and both complete through a real device exchange
                    fleet = FleetRunner(dep.tds_list, connect, rng=random.Random(1))
                    await fleet.run(until_queries_done=2)
                    for query_id, task in waiting.items():
                        result = await asyncio.wait_for(task, 5.0)
                        assert sorted_rows(querier.decrypt_result(result)) == (
                            sorted_rows(dep.reference_answer(GROUP_SQL))
                        ), query_id

        run_async(run())


class TestLocalParity:
    """The in-process SSI raises the types the wire errors map to."""

    def test_local_ssi_raises_the_same_types(self, deployment):
        querier = deployment.make_querier()
        envelope = querier.make_envelope("SELECT COUNT(*) AS n FROM Consumer")
        deployment.ssi.post_query(envelope)
        with pytest.raises(DuplicateQueryError):
            deployment.ssi.post_query(envelope)
        with pytest.raises(UnknownQueryError):
            deployment.ssi.envelope("missing")
        with pytest.raises(ResultNotReadyError):
            deployment.ssi.fetch_result(envelope.query_id)


def test_build_deployment_helper_smoke():
    deployment = build_deployment(num_tds=4)
    assert len(deployment.tds_list) == 4
