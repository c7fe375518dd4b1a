"""Wire-level rollback detection: EXT_COMMITMENT acks, the
MSG_GET_COMMITMENT probe with inclusion proofs, idempotent retries
across a crash-restart, the no-store fallback — and the same detection
on the connections a real fleet run leaves behind."""

import asyncio
import random
import shutil
import threading
import time

import pytest

from repro.core.messages import Credential, EncryptedTuple, QueryEnvelope
from repro.exceptions import ProtocolError, RollbackDetectedError
from repro.net import fleet as fleet_mod
from repro.net import frames
from repro.net.client import AsyncSSIClient, QuerierClient, RetryPolicy, TDSClient
from repro.net.fleet import FleetRunner
from repro.net.frames import QueryMeta
from repro.net.server import SSIDispatcher, SSIServer
from repro.net.transport import LoopbackTransport, TCPTransport
from repro.store import DurableStore
from repro.store.commitment import Commitment

from .conftest import GROUP_SQL, build_deployment, run_async, sorted_rows


def make_envelope(query_id="q1"):
    return QueryEnvelope(
        query_id=query_id,
        encrypted_query=b"\x01\x02ciphertext",
        credential=Credential("alice", frozenset({"public"}), b"sig"),
        size_tuples=8,
    )


class RecordingTransport(LoopbackTransport):
    """Loopback that remembers the raw bytes of the last request, so a
    test can replay them verbatim (what a client retry does)."""

    def __init__(self, dispatch):
        super().__init__(dispatch)
        self.last_request = None

    async def request(self, message):
        self.last_request = message
        return await super().request(message)


def open_dispatcher(data_dir, **kwargs):
    store = DurableStore.open(data_dir, **kwargs)
    return store, SSIDispatcher.with_store(store)


def durable_client(dispatcher, transport_cls=LoopbackTransport, seed=1):
    transport = transport_cls(dispatcher.dispatch)
    return AsyncSSIClient(transport, rng=random.Random(seed))


class TestAckCommitments:
    def test_durable_acks_carry_the_commitment(self, tmp_path):
        async def run():
            store, dispatcher = open_dispatcher(tmp_path)
            client = durable_client(dispatcher)
            _version, caps = await client.hello()
            assert caps & frames.CAP_DURABLE_COMMITMENT
            assert client.last_commitment is None
            await client.post_query(make_envelope())
            first = client.last_commitment
            assert first is not None and first.count == 1
            await client.submit_tuples("q1", [EncryptedTuple(b"ct")])
            await client.submit_tuples("q1", [EncryptedTuple(b"ct2")])
            assert client.last_commitment.count == 3
            assert client.last_commitment == store.commitment()
            # Read-only ops don't advance (and don't regress) the anchor.
            assert await client.collected_count("q1") == 2
            assert client.last_commitment.count == 3
            store.close()

        run_async(run())

    def test_get_commitment_probe_and_freshness(self, tmp_path):
        async def run():
            store, dispatcher = open_dispatcher(tmp_path)
            client = durable_client(dispatcher)
            await client.hello()
            assert await client.verify_freshness() == Commitment(
                0, bytes(32)
            )
            await client.post_query(make_envelope())
            anchor = client.last_commitment
            await client.submit_tuples("q1", [EncryptedTuple(b"ct")])
            # The server must prove its longer chain extends the anchor.
            current = await client.get_commitment(anchor)
            assert current.count == 2
            assert await client.verify_freshness() == current
            store.close()

        run_async(run())

    def test_no_store_returns_none(self):
        async def run():
            client = durable_client(SSIDispatcher())
            await client.hello()
            assert await client.get_commitment() is None
            assert await client.verify_freshness() is None
            await client.post_query(make_envelope())
            assert client.last_commitment is None

        run_async(run())

    def test_negative_check_count_is_malformed(self, tmp_path):
        async def run():
            store, dispatcher = open_dispatcher(tmp_path)
            client = durable_client(dispatcher)
            await client.hello()
            with pytest.raises(ProtocolError):
                await client.get_commitment(Commitment(-1, bytes(32)))
            store.close()

        run_async(run())


class TestProbeDoesNotBlockTheLoop:
    def test_ping_completes_while_the_hasher_is_held(self, tmp_path):
        """MSG_GET_COMMITMENT waits for the chain to cover the WAL; that
        wait must be an await, not a blocked event loop."""

        async def run():
            store = DurableStore.open(tmp_path, hash_offload=True)
            dispatcher = SSIDispatcher.with_store(store)
            client = durable_client(dispatcher)
            await client.post_query(make_envelope())
            # Hold the hasher thread inside its next chain extension; a
            # timer (not the loop) lets it go, so a blocked loop shows
            # up as a late ping instead of a deadlock.
            hold = 0.6
            store._chain_lock.acquire()
            threading.Timer(hold, store._chain_lock.release).start()
            started = time.perf_counter()
            submit = asyncio.create_task(
                client.submit_tuples("q1", [EncryptedTuple(b"ct")])
            )
            probe = asyncio.create_task(client.get_commitment())
            await asyncio.sleep(0.05)  # both now wait on the held hasher
            await asyncio.wait_for(client.ping(), timeout=hold)
            assert time.perf_counter() - started < hold
            assert not probe.done() and not submit.done()
            await submit
            assert (await probe).count == 2
            store.close()

        run_async(run())


class TestRollbackDetection:
    def test_restarting_from_an_older_copy_is_detected(self, tmp_path):
        async def run():
            live = tmp_path / "live"
            store, dispatcher = open_dispatcher(live)
            client = durable_client(dispatcher)
            await client.hello()
            await client.post_query(make_envelope())
            await client.submit_tuples("q1", [EncryptedTuple(b"ct1")])
            await store.sync()
            # The operator keeps a copy of the state at count 2 ...
            stale = tmp_path / "stale"
            shutil.copytree(live, stale)
            # ... while the client keeps contributing (count 4).
            await client.submit_tuples("q1", [EncryptedTuple(b"ct2")])
            await client.submit_tuples("q1", [EncryptedTuple(b"ct3")])
            anchor = client.last_commitment
            assert anchor.count == 4
            store._wal.close()

            # Restart from the stale copy: two acknowledged submissions
            # silently dropped.  The freshness probe must catch it.
            store2, dispatcher2 = open_dispatcher(stale)
            client.transport = LoopbackTransport(dispatcher2.dispatch)
            assert store2.commitment().count == 2
            with pytest.raises(RollbackDetectedError, match="rolled back"):
                await client.verify_freshness()
            store2.close()

        run_async(run())

    def test_equal_length_rewrite_is_detected(self, tmp_path):
        async def run():
            live = tmp_path / "live"
            store, dispatcher = open_dispatcher(live)
            client = durable_client(dispatcher)
            await client.hello()
            await client.post_query(make_envelope())
            await client.submit_tuples("q1", [EncryptedTuple(b"real")])
            await store.sync()
            stale = tmp_path / "stale"
            shutil.copytree(live, stale)
            await client.submit_tuples("q1", [EncryptedTuple(b"real2")])
            anchor = client.last_commitment
            assert anchor.count == 3
            store._wal.close()

            # The operator restarts from the copy and regrows the log to
            # the same length with *different* records.
            store2, dispatcher2 = open_dispatcher(stale)
            other = durable_client(dispatcher2, seed=2)  # distinct identity
            await other.hello()
            await other.submit_tuples("q1", [EncryptedTuple(b"forged")])
            assert store2.commitment().count == 3

            client.transport = LoopbackTransport(dispatcher2.dispatch)
            with pytest.raises(RollbackDetectedError):
                await client.verify_freshness()
            store2.close()

        run_async(run())

    def test_passive_detection_on_equal_count_acks(self):
        client = AsyncSSIClient(
            LoopbackTransport(lambda body: None), rng=random.Random(1)
        )
        client._observe_commitment(Commitment(5, b"\x01" * 32))
        # Stale pipelined ack: lower count is ignored, not an alarm.
        client._observe_commitment(Commitment(4, b"\x02" * 32))
        assert client.last_commitment.count == 5
        with pytest.raises(RollbackDetectedError, match="rewritten"):
            client._observe_commitment(Commitment(5, b"\x03" * 32))


class TestRollbackReachesTheFleet:
    """The clients FleetRunner and a querier actually use — no hello(),
    no hand-built anchor — observe commitments on their durable acks and
    detect a server restarted from an older copy of its data dir."""

    def test_fleet_and_querier_connections_detect_a_rollback(
        self, tmp_path, monkeypatch
    ):
        fleet_clients = []

        class RecordedTDSClient(TDSClient):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                fleet_clients.append(self)

        monkeypatch.setattr(fleet_mod, "TDSClient", RecordedTDSClient)
        live, stale = tmp_path / "live", tmp_path / "stale"

        async def run():
            dep = build_deployment(4)
            store = DurableStore.open(live)
            server = SSIServer(SSIDispatcher.with_store(store, partition_timeout=0.5))
            await server.start()
            port = server.port

            def connect():
                return TCPTransport("127.0.0.1", port)

            fleet = FleetRunner(
                dep.tds_list,
                connect,
                policy=RetryPolicy(backoff_base=0.01),
                poll_interval=0.01,
                rng=random.Random(5),
            )
            fleet_task = asyncio.create_task(fleet.run(until_queries_done=2))
            querier = dep.make_querier()
            querier_client = QuerierClient(connect())

            async def query():
                envelope = querier.make_envelope(GROUP_SQL)
                await querier_client.post_query(
                    envelope, meta=QueryMeta("s_agg", {"partition_timeout": 0.5})
                )
                result = await querier_client.wait_result(
                    envelope.query_id, poll_interval=0.01, timeout=30.0
                )
                return sorted_rows(querier.decrypt_result(result))

            try:
                expected = sorted_rows(dep.reference_answer(GROUP_SQL))
                assert await query() == expected
                # The operator keeps a copy of the state after one query ...
                await store.sync()
                shutil.copytree(live, stale)
                older = store.commitment().count
                # ... while fleet and querier run a second one.
                assert await query() == expected
                await fleet_task
            finally:
                fleet.stop()

            # Every connection that wrote saw the chain position of its
            # writes: one per device (its contributions; the close goes
            # over the connection of the device that completes the set).
            clients = [*fleet_clients, querier_client]
            assert len(fleet_clients) == len(dep.tds_list)
            for client in clients:
                assert client.last_commitment is not None
                assert client.last_commitment.count > older
                current = await client.verify_freshness()
                assert current.count == store.commitment().count
                await client.close()  # the "process" dies: reconnect below

            # Restart from the stale copy on the same port: the second
            # query's acknowledged writes are silently gone.
            await server.close()
            store.close()
            store2 = DurableStore.open(stale)
            assert store2.commitment().count == older
            server2 = SSIServer(SSIDispatcher.with_store(store2), port=port)
            await server2.start()
            try:
                for client in clients:
                    with pytest.raises(RollbackDetectedError, match="rolled back"):
                        await client.verify_freshness()
            finally:
                for client in clients:
                    await client.close()
                await server2.close()
                store2.close()

        run_async(run())


class TestCrashRetrySemantics:
    def test_retry_spanning_a_restart_is_not_double_applied(self, tmp_path):
        async def run():
            store, dispatcher = open_dispatcher(tmp_path)
            client = durable_client(dispatcher, RecordingTransport)
            await client.hello()
            await client.post_query(make_envelope())
            await client.submit_tuples("q1", [EncryptedTuple(b"ct")])
            replay = client.transport.last_request
            await store.sync()
            assert await client.collected_count("q1") == 1
            store._wal.close()  # crash

            store2, dispatcher2 = open_dispatcher(tmp_path)
            transport2 = LoopbackTransport(dispatcher2.dispatch)
            # The client never saw the ack and retries the same bytes.
            response = await transport2.request(replay)
            msg_type, _corr, _exts, _r = frames.unpack_frame_ext(response)
            assert msg_type == frames.MSG_OK
            client.transport = transport2
            assert await client.collected_count("q1") == 1  # not 2
            store2.close()

        run_async(run())

    def test_fresh_submissions_after_recovery_append_normally(self, tmp_path):
        async def run():
            store, dispatcher = open_dispatcher(tmp_path)
            client = durable_client(dispatcher)
            await client.hello()
            await client.post_query(make_envelope())
            await client.submit_tuples("q1", [EncryptedTuple(b"ct")])
            await store.sync()
            anchor = client.last_commitment
            store._wal.close()  # crash

            store2, dispatcher2 = open_dispatcher(tmp_path)
            client.transport = LoopbackTransport(dispatcher2.dispatch)
            await client.submit_tuples("q1", [EncryptedTuple(b"ct2")])
            assert await client.collected_count("q1") == 2
            # The regrown chain extends the pre-crash anchor: an honest
            # restart never looks like a rollback.
            current = await client.get_commitment(anchor)
            assert current.count == anchor.count + 1
            store2.close()

        run_async(run())
