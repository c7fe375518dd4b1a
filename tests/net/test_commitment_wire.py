"""Wire-level rollback detection: EXT_COMMITMENT acks, the
MSG_GET_COMMITMENT probe with inclusion proofs, idempotent retries
across a crash-restart, the no-store fallback — and the same detection
on the connections a real fleet run leaves behind."""

import asyncio
import random
import shutil
import threading
import time
from contextlib import asynccontextmanager

import pytest

from repro.core.messages import (
    Credential,
    EncryptedTuple,
    QueryEnvelope,
)
from repro.exceptions import ProtocolError, RollbackDetectedError
from repro.net import fleet as fleet_mod
from repro.net import frames, ops
from repro.net.client import AsyncSSIClient, QuerierClient, RetryPolicy, TDSClient
from repro.net.fleet import FleetRunner
from repro.net.frames import QueryMeta, Writer
from repro.net.server import SSIDispatcher, SSIServer
from repro.net.transport import LoopbackTransport, TCPTransport
from repro.store import DurableStore
from repro.store.commitment import Commitment

from .conftest import GROUP_SQL, build_deployment, run_async, sorted_rows
from .golden.capture import block
from .test_keyed_writes import replays
from .test_long_poll import serving, until


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
            await client.ping()
            assert client.last_commitment is None
            await client.post_query(make_envelope())
            first = client.last_commitment
            assert first is not None and first.count == 1
            await client.submit_tuples_batch("q1", [EncryptedTuple(b"ct")])
            await client.submit_tuples_batch("q1", [EncryptedTuple(b"ct2")])
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
            await client.ping()
            assert await client.verify_freshness() == Commitment(
                0, bytes(32)
            )
            await client.post_query(make_envelope())
            anchor = client.last_commitment
            await client.submit_tuples_batch("q1", [EncryptedTuple(b"ct")])
            # The server must prove its longer chain extends the anchor.
            current = await client.get_commitment(anchor)
            assert current.count == 2
            assert await client.verify_freshness() == current
            store.close()

        run_async(run())

    def test_no_store_returns_none(self):
        async def run():
            client = durable_client(SSIDispatcher())
            await client.ping()
            assert await client.get_commitment() is None
            assert await client.verify_freshness() is None
            await client.post_query(make_envelope())
            assert client.last_commitment is None

        run_async(run())

    def test_negative_check_count_is_malformed(self, tmp_path):
        async def run():
            store, dispatcher = open_dispatcher(tmp_path)
            client = durable_client(dispatcher)
            await client.ping()
            with pytest.raises(ProtocolError):
                await client.get_commitment(Commitment(-1, bytes(32)))
            store.close()

        run_async(run())


class HeldFsync:
    """``WalWriter.fsync`` of *store* held on an event: nothing becomes
    durable until :meth:`release` — which a test reaches however the
    server behaves, so a wrong ack shows as an assertion, not a hang."""

    def __init__(self, store):
        self._fsync = store._wal.fsync
        self._gate = threading.Event()
        self.calls = 0
        store._wal.fsync = self

    def __call__(self):  # on the executor thread
        self.calls += 1
        assert self._gate.wait(20.0), "fsync never released"
        self._fsync()

    def release(self):
        self._gate.set()


def tuples(tag, count=4):
    return [EncryptedTuple(b"ct-%s-%d" % (tag, i), None) for i in range(count)]


async def answered(awaitable, within=2.0):
    """The result of a request that must not wait for the held fsync."""
    return await asyncio.wait_for(awaitable, timeout=within)


@pytest.mark.parametrize("kind", ["loopback", "tcp"])
class TestAnAckWaitsForItsOwnRecordsAndNothingElse:
    """The two kinds of durable ack (``ops.Op``), pinned from both
    sides with the disk held: what must not wait is answered, what must
    wait is not."""

    @asynccontextmanager
    async def held(self, kind, tmp_path, *, closed):
        """(connect, store, hold): q1 posted as an S_Agg query with four
        tuples in, its collection closed or not — all of it on disk —
        and every fsync from here on held."""
        store, dispatcher = open_dispatcher(tmp_path)
        async with serving(kind, dispatcher) as connect:
            querier = AsyncSSIClient(connect(), rng=random.Random(7))
            await querier.post_query(
                make_envelope(), meta=QueryMeta("s_agg", {"alpha": 2.0})
            )
            await querier.submit_tuples_batch("q1", tuples(b"a"))
            if closed:
                await querier.close_collection("q1")
            hold = HeldFsync(store)
            try:
                yield connect, store, hold
            finally:
                hold.release()
        store.close()

    def test_a_request_that_appended_nothing_does_not_wait(self, kind, tmp_path):
        async def run():
            async with self.held(kind, tmp_path, closed=False) as (
                connect, _store, hold,
            ):
                neighbour = AsyncSSIClient(connect(), rng=random.Random(8))
                device = AsyncSSIClient(connect(), rng=random.Random(9))
                submit = asyncio.create_task(
                    neighbour.submit_tuples_batch("q1", tuples(b"b", 2))
                )
                await until(lambda: hold.calls == 1)  # journaled, waiting
                # nothing to hand out, nothing appended: answered at once
                assert await answered(device.await_work("tds-1", ["q1"], 0.0)) == (
                    [], None, [],
                )
                await answered(device.ping())
                assert device.last_commitment is None
                assert not submit.done()
                hold.release()
                await submit
                assert neighbour.last_commitment.count == 3

        run_async(run())

    def test_partials_are_not_waited_for_and_the_result_is(self, kind, tmp_path):
        async def run():
            async with self.held(kind, tmp_path, closed=True) as (
                connect, store, hold,
            ):
                device = AsyncSSIClient(connect(), rng=random.Random(9))
                folded = 0
                while True:
                    _, unit, _ = await answered(
                        device.await_work("tds-1", ["q1"], 0.0)
                    )
                    if unit.kind == frames.WORK_FINALIZE:
                        break
                    await answered(device.submit_partition_result(
                        "q1", unit.partition_id, "tds-1",
                        (frames.RESULT_PARTIALS, block(b"p")),
                    ))
                    folded += 1
                # two rounds of partials journaled, acked, nothing attested
                assert folded == 3 and store.last_seq == 3 + folded + 2
                assert device.last_commitment is None and hold.calls == 0
                final = asyncio.create_task(device.submit_partition_result(
                    "q1", unit.partition_id, "tds-1", (frames.RESULT_ROWS, block(b"row"))
                ))
                await until(lambda: hold.calls == 1)
                await asyncio.sleep(0.05)
                assert not final.done()
                hold.release()
                await final
                assert device.last_commitment == store.commitment()
                assert device.last_commitment.count == store.last_seq

        run_async(run())

    def test_a_replay_does_not_overtake_its_originals_fsync(self, kind, tmp_path):
        """A replayed key and a second close append nothing, and their
        acks still say "this mutation is on disk": syncing only what a
        request appended itself would ack them while the original's
        record is in the page cache."""

        async def run():
            async with self.held(kind, tmp_path, closed=False) as (
                connect, store, hold,
            ):
                w = Writer()
                ops.IDEM.write(w, ("c0ffee", 1))
                ops.SUBMIT_TUPLES_BATCH.write_request(w, ("q1", tuples(b"b", 2)))
                submission = frames.pack_frame(
                    frames.MSG_SUBMIT_TUPLES_BATCH, w.getvalue()
                )
                dropped = replays()
                original = asyncio.create_task(connect().request(submission))
                await until(lambda: hold.calls == 1)
                replay = asyncio.create_task(connect().request(submission))
                await until(lambda: replays() == dropped + 1)
                closers = [
                    AsyncSSIClient(connect(), rng=random.Random(seed))
                    for seed in (8, 9)
                ]
                close = asyncio.create_task(closers[0].close_collection("q1"))
                await until(lambda: store.last_seq == 4)
                again = asyncio.create_task(closers[1].close_collection("q1"))
                await asyncio.sleep(0.1)
                waiting = (original, replay, close, again)
                assert not any(task.done() for task in waiting)
                hold.release()
                for answer in await asyncio.gather(original, replay):
                    assert frames.unpack_frame_ext(answer)[0] == frames.MSG_OK
                await asyncio.gather(close, again)
                assert store.last_seq == 4  # one submission, one close
                assert closers[0].last_commitment.count == 4
                assert closers[1].last_commitment is None

        run_async(run())

    def test_no_commitment_leaves_before_its_count_is_on_disk(self, kind, tmp_path):
        """Eight requests in flight, appending and probing: every head
        that leaves — as an ack's extension or a probe's payload — has a
        count some fsync that already returned covers."""
        synced = [0]
        left = []

        async def run():
            store, dispatcher = open_dispatcher(tmp_path)
            fsync = store._wal.fsync

            def recording_fsync():  # on the executor thread
                covered = store.last_seq
                time.sleep(0.002)  # let pipelined neighbours append meanwhile
                fsync()
                synced[0] = max(synced[0], covered)

            store._wal.fsync = recording_fsync
            dispatch = dispatcher.dispatch

            async def checking_dispatch(body):
                response = await dispatch(body)
                _, _, exts, reader = frames.unpack_frame_ext(
                    response[frames.LENGTH_PREFIX_BYTES:]
                )
                counts = []
                if frames.EXT_COMMITMENT in exts:
                    counts.append(
                        Commitment.from_wire(exts[frames.EXT_COMMITMENT]).count
                    )
                if frames.unpack_frame_ext(body)[0] == frames.MSG_GET_COMMITMENT:
                    counts.append(ops.ATTESTATION.read(reader)[0])
                left.extend((count, synced[0]) for count in counts)
                return response

            dispatcher.dispatch = checking_dispatch
            async with serving(kind, dispatcher) as connect:
                client = AsyncSSIClient(connect(window=8), rng=random.Random(7))
                await client.post_query(make_envelope("q1"))
                await client.post_query(make_envelope("q2"))

                async def lane(index):
                    for step in range(12):
                        if (index + step) % 4 == 3:
                            await client.get_commitment()
                        else:
                            await client.submit_tuples_batch(
                                f"q{1 + index % 2}", tuples(b"%d" % index, 1)
                            )

                await asyncio.gather(*(lane(index) for index in range(8)))
            store.close()

        run_async(run())
        assert len(left) >= 8 * 12
        assert all(count <= covered for count, covered in left), left

class TestRollbackDetection:
    def test_restarting_from_an_older_copy_is_detected(self, tmp_path):
        async def run():
            live = tmp_path / "live"
            store, dispatcher = open_dispatcher(live)
            client = durable_client(dispatcher)
            await client.ping()
            await client.post_query(make_envelope())
            await client.submit_tuples_batch("q1", [EncryptedTuple(b"ct1")])
            await store.sync(store.last_seq)
            # The operator keeps a copy of the state at count 2 ...
            stale = tmp_path / "stale"
            shutil.copytree(live, stale)
            # ... while the client keeps contributing (count 4).
            await client.submit_tuples_batch("q1", [EncryptedTuple(b"ct2")])
            await client.submit_tuples_batch("q1", [EncryptedTuple(b"ct3")])
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
            await client.ping()
            await client.post_query(make_envelope())
            await client.submit_tuples_batch("q1", [EncryptedTuple(b"real")])
            await store.sync(store.last_seq)
            stale = tmp_path / "stale"
            shutil.copytree(live, stale)
            await client.submit_tuples_batch("q1", [EncryptedTuple(b"real2")])
            anchor = client.last_commitment
            assert anchor.count == 3
            store._wal.close()

            # The operator restarts from the copy and regrows the log to
            # the same length with *different* records.
            store2, dispatcher2 = open_dispatcher(stale)
            other = durable_client(dispatcher2, seed=2)  # distinct identity
            await other.ping()
            await other.submit_tuples_batch("q1", [EncryptedTuple(b"forged")])
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
    """The clients FleetRunner and a querier actually use — no connect
    probe, no hand-built anchor — observe commitments on their durable acks and
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
                await store.sync(store.last_seq)
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
            await client.ping()
            await client.post_query(make_envelope())
            await client.submit_tuples_batch("q1", [EncryptedTuple(b"ct")])
            replay = client.transport.last_request
            await store.sync(store.last_seq)
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
            await client.ping()
            await client.post_query(make_envelope())
            await client.submit_tuples_batch("q1", [EncryptedTuple(b"ct")])
            await store.sync(store.last_seq)
            anchor = client.last_commitment
            store._wal.close()  # crash

            store2, dispatcher2 = open_dispatcher(tmp_path)
            client.transport = LoopbackTransport(dispatcher2.dispatch)
            await client.submit_tuples_batch("q1", [EncryptedTuple(b"ct2")])
            assert await client.collected_count("q1") == 2
            # The regrown chain extends the pre-crash anchor: an honest
            # restart never looks like a rollback.
            current = await client.get_commitment(anchor)
            assert current.count == anchor.count + 1
            store2.close()

        run_async(run())
