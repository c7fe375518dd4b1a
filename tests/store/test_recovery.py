"""DurableStore end-to-end: journal, crash replay, snapshots, GC,
clean shutdown and offline verification."""

import asyncio
import random

import pytest

from repro.core.messages import (
    Credential,
    EncryptedTuple,
    EncryptedTupleBlock,
    QueryEnvelope,
)
from repro.exceptions import CorruptLogError, StoreError
from repro.net.client import AsyncSSIClient
from repro.net.frames import QueryMeta
from repro.net.server import SSIDispatcher
from repro.net.transport import LoopbackTransport
from repro.ssi.storage import QueryStorage
from repro.store import DurableStore, verify_data_dir
from repro.store import snapshot as store_snapshot
from repro.store import wal as store_wal
from repro.store.commitment import CommitmentChain
from repro.store.recovery import SNAPSHOT_SUBDIR, WAL_SUBDIR


def make_envelope(query_id="q1"):
    return QueryEnvelope(
        query_id=query_id,
        encrypted_query=b"\x01\x02ciphertext",
        credential=Credential("alice", frozenset({"public"}), b"sig"),
        size_tuples=4,
    )


def run(coro):
    return asyncio.run(coro)


def populate(store, query_id="q1", tuples=3):
    """Journal one query's collection through the store's own journal,
    mirroring what the dispatcher does live."""
    journal = store.journal
    journal.record(
        "post_query", make_envelope(query_id), "tds-1", QueryMeta("s_agg")
    )
    store.recovered.ssi.post_query(make_envelope(query_id), "tds-1")
    for i in range(tuples):
        block = EncryptedTupleBlock.from_tuples(
            [EncryptedTuple(f"ct-{i}".encode(), b"tag")]
        )
        journal.set_idem("client-a", i + 1)
        journal.record("submit_tuple_block", query_id, block)
        store.recovered.ssi.submit_tuple_block(query_id, block)


#: one contribution per shape its tag column takes: untagged, tags of
#: one length, all-empty tags, and mixed lengths with None among them
TAG_SHAPES = [
    EncryptedTupleBlock.joined([b"u-0", b"u-11"], [None, None]),
    EncryptedTupleBlock.joined([b"e-0", b"", b"e-2"], [b"tg0", b"tg1", b"tg2"]),
    EncryptedTupleBlock.joined([b"z-0", b"z-1"], [b"", b""]),
    EncryptedTupleBlock.joined(
        [b"m-0", b"m-1", b"m-2", b"m-3"], [None, b"", b"long-tag", None]
    ),
]
#: partials of a per-group fold (tagged, mixed) and of S_Agg (untagged)
PARTIAL_SHAPES = [
    EncryptedTupleBlock.joined([b"p-0", b"p-1", b"p-2"], [b"g0", None, b""]),
    EncryptedTupleBlock.joined([b"p-3"], [None]),
]
#: result rows of two filtering partitions: untagged, of mixed lengths
ROW_SHAPES = [
    EncryptedTupleBlock.joined([b"r-0", b"", b"row-2"], [None, None, None]),
    EncryptedTupleBlock.joined([b"r-3"], [None]),
]


#: records a store holds halfway through :func:`submit_tag_shapes` after
#: ``populate(store, tuples=1)``: post, one tuple, two contributions, a
#: partial, a block of rows — the ``snapshot_every`` that snapshots
#: exactly there
HALFWAY = 6


def submit_tag_shapes(store, snapshot=False):
    """After :func:`populate`: a durable dispatcher takes every
    :data:`TAG_SHAPES` contribution over the wire and holds every
    :data:`PARTIAL_SHAPES` and :data:`ROW_SHAPES` block, snapshotting
    halfway when asked (the store must then be opened with
    ``snapshot_every=HALFWAY``)."""
    dispatcher = SSIDispatcher.with_store(store)
    client = AsyncSSIClient(
        LoopbackTransport(dispatcher.dispatch), rng=random.Random(1)
    )

    async def drive():
        for half in (0, 1):
            for block in TAG_SHAPES[2 * half : 2 * half + 2]:
                await client.submit_tuples_batch("q1", block)
            dispatcher.ssi.submit_partials("q1", PARTIAL_SHAPES[half])
            dispatcher.ssi.store_result_rows("q1", ROW_SHAPES[half])
            if snapshot and not half:
                assert await store.maybe_snapshot(dispatcher.capture_state)
        await store.sync(store.last_seq)

    run(drive())
    return dispatcher


class TestCrashRecovery:
    def test_replay_restores_collected_state(self, tmp_path):
        store = DurableStore.open(tmp_path)
        populate(store, tuples=3)
        submit_tag_shapes(store)
        run(store.sync(store.last_seq))
        head_before = store.commitment()
        # No close(): models SIGKILL.  The WAL alone must rebuild it.
        store._wal.close()

        reopened = DurableStore.open(tmp_path)
        assert not reopened.recovered.clean
        shapes = len(TAG_SHAPES) + len(PARTIAL_SHAPES) + len(ROW_SHAPES)
        assert reopened.recovered.replayed_records == 4 + shapes
        ssi = reopened.recovered.ssi
        assert "q1" in ssi.storage_map()
        assert len(ssi.covering_result("q1")) == 3 + sum(map(len, TAG_SHAPES))
        # The chain is rebuilt to the identical head: nothing lost,
        # nothing rewritten.
        assert reopened.commitment() == head_before
        assert ssi.query("q1").meta.protocol == "s_agg"
        assert ssi.query("q1").tds_id == "tds-1"
        reopened.close()

    @pytest.mark.parametrize("snapshot", [False, True], ids=["wal", "snapshot+suffix"])
    def test_every_tag_shape_comes_back_field_by_field(self, tmp_path, snapshot):
        """Stored blocks equal what was submitted — payloads, offsets
        and tags, None apart from b"" — whether the reopen replays the
        whole WAL or a snapshot plus the WAL suffix after it."""
        store = DurableStore.open(
            tmp_path, **({"snapshot_every": HALFWAY} if snapshot else {})
        )
        populate(store, tuples=1)
        first = store.recovered.ssi.storage_map()["q1"].collected_blocks[0]
        dispatcher = submit_tag_shapes(store, snapshot=snapshot)
        live = dispatcher.ssi.storage_map()["q1"]
        assert live.collected_blocks == [first, *TAG_SHAPES]
        assert live.partials == PARTIAL_SHAPES
        assert live.result_rows == ROW_SHAPES
        head_before = store.commitment()
        store._wal.close()

        reopened = DurableStore.open(tmp_path)
        assert reopened.recovered.snapshot_seq == (HALFWAY if snapshot else 0)
        assert reopened.recovered.replayed_records == head_before.count - (
            HALFWAY if snapshot else 0
        )
        stored = reopened.recovered.ssi.storage_map()["q1"]
        for got, want in zip(
            stored.collected_blocks + stored.partials + stored.result_rows,
            [first, *TAG_SHAPES, *PARTIAL_SHAPES, *ROW_SHAPES],
            strict=True,
        ):
            assert (got.payloads, got.offsets, got.tags) == (
                want.payloads, want.offsets, want.tags
            )
        assert reopened.commitment() == head_before
        reopened.close()
        report = verify_data_dir(tmp_path)
        assert report["commitment_count"] == head_before.count
        assert report["commitment_head"] == head_before.head.hex()

    def test_idempotency_state_survives_the_crash(self, tmp_path):
        store = DurableStore.open(tmp_path)
        populate(store, tuples=3)
        run(store.sync(store.last_seq))
        store._wal.close()

        reopened = DurableStore.open(tmp_path)
        # client-a applied seqs 1..3 before the crash; a post-restart
        # retry of any of them must be recognizable as already applied.
        assert reopened.recovered.idempotency.snapshot() == ({"client-a": 3}, {})
        assert reopened.recovered.idempotency.seen("client-a", 3)
        assert not reopened.recovered.idempotency.seen("client-a", 4)
        reopened.close()

    def test_clean_shutdown_snapshot_skips_replay(self, tmp_path):
        store = DurableStore.open(tmp_path)
        populate(store, tuples=2)
        run(store.sync(store.last_seq))
        state = store_snapshot.SnapshotState(
            applied_seq={"client-a": 2},
            queries=[
                QueryStorage(
                    envelope=make_envelope(),
                    meta=QueryMeta("s_agg"),
                    tds_id="tds-1",
                    collected_blocks=list(
                        store.recovered.ssi.storage_map()["q1"].collected_blocks
                    ),
                )
            ],
        )
        store.close(state)

        reopened = DurableStore.open(tmp_path)
        assert reopened.recovered.clean
        assert reopened.recovered.replayed_records == 0
        assert reopened.recovered.truncated_bytes == 0
        assert reopened.recovered.snapshot_fallbacks == 0
        assert len(reopened.recovered.ssi.covering_result("q1")) == 2
        assert reopened.commitment() == store.commitment()
        reopened.close()

    def test_closed_store_rejects_appends(self, tmp_path):
        store = DurableStore.open(tmp_path)
        store.close()
        with pytest.raises(StoreError, match="closed"):
            store.journal.record("close_collection", "q1")


class TestSnapshotsAndGc:
    def test_maybe_snapshot_writes_and_gcs(self, tmp_path):
        store = DurableStore.open(tmp_path, snapshot_every=4)
        store._wal.segment_bytes = 128  # force rotation
        populate(store, tuples=6)
        head_before = store.commitment()

        def capture():
            ssi = store.recovered.ssi
            return store_snapshot.SnapshotState(
                applied_seq=store.recovered.idempotency.snapshot()[0],
                queries=[
                    QueryStorage(
                        envelope=make_envelope(),
                        meta=QueryMeta("s_agg"),
                        tds_id="tds-1",
                        collected_blocks=list(
                            ssi.storage_map()["q1"].collected_blocks
                        ),
                    )
                ],
            )

        assert run(store.maybe_snapshot(capture)) is True
        # Below the threshold again: no second snapshot.
        assert run(store.maybe_snapshot(capture)) is False
        snaps = store_snapshot.list_snapshots(tmp_path / SNAPSHOT_SUBDIR)
        assert len(snaps) == 1
        assert snaps[0][0] == 7  # post + 6 submissions

        # Historical heads survive snapshotting and WAL GC.
        reopened_after = DurableStore.open(tmp_path)
        for count in range(0, 8):
            assert reopened_after.head_at(count) is not None
        assert reopened_after.commitment() == head_before
        reopened_after.close()

    @staticmethod
    def _two_snapshots(tmp_path):
        """A store whose WAL holds every record, behind two snapshots;
        returns it (closed) and the snapshot files, oldest first."""
        store = DurableStore.open(tmp_path, snapshot_every=1)
        populate(store, tuples=2)

        def capture():
            return store_snapshot.SnapshotState(
                queries=[
                    QueryStorage(
                        envelope=make_envelope(),
                        meta=QueryMeta("s_agg"),
                        collected_blocks=list(
                            store.recovered.ssi.storage_map()["q1"].collected_blocks
                        ),
                    )
                ]
            )

        assert run(store.maybe_snapshot(capture)) is True
        store.journal.record("close_collection", "q1")
        store.recovered.ssi.close_collection("q1")
        assert run(store.maybe_snapshot(capture)) is True
        run(store.sync(store.last_seq))
        store._wal.close()

        snaps = store_snapshot.list_snapshots(tmp_path / SNAPSHOT_SUBDIR)
        assert len(snaps) == 2
        return store, [path for _, path in snaps]

    def test_corrupt_newest_snapshot_falls_back(self, tmp_path):
        store, (_, newest) = self._two_snapshots(tmp_path)
        data = bytearray(newest.read_bytes())
        data[len(data) // 2] ^= 0x01
        newest.write_bytes(bytes(data))

        reopened = DurableStore.open(tmp_path)
        # Fallback to the older snapshot; WAL records past it replayed.
        assert reopened.recovered.snapshot_fallbacks == 1
        assert "q1" in reopened.recovered.ssi.storage_map()
        assert reopened.commitment() == store.commitment()
        reopened.close()

    def test_a_snapshot_named_for_another_seq_is_a_fallback(self, tmp_path):
        """WAL GC trusts the sequence in a snapshot's file name, so one
        whose name disagrees with its payload is not loaded: ``open``
        falls back a generation and ``verify_data_dir`` refuses."""
        store, (_, newest) = self._two_snapshots(tmp_path)
        renamed = newest.with_name(store_snapshot.snapshot_name(store.last_seq + 5))
        newest.rename(renamed)

        with pytest.raises(CorruptLogError, match=f"{renamed.name} claims WAL seq"):
            verify_data_dir(tmp_path)
        reopened = DurableStore.open(tmp_path)
        assert reopened.recovered.snapshot_fallbacks == 1
        assert reopened.recovered.replayed_records > 0
        assert "q1" in reopened.recovered.ssi.storage_map()
        assert reopened.commitment() == store.commitment()
        reopened.close()


class TestVerifyDataDir:
    def test_intact_dir_verifies(self, tmp_path):
        store = DurableStore.open(tmp_path)
        populate(store, tuples=2)
        store.journal.record(
            "submit_partials", "q1",
            EncryptedTupleBlock.from_tuples([EncryptedTuple(b"cp")]),
        )
        store.close()
        report = verify_data_dir(tmp_path)
        assert report["wal_records"] == 4
        assert report["commitment_count"] == 4
        assert report["clean"] is False  # no final snapshot was written

    def test_tampered_record_fails_verification(self, tmp_path):
        store = DurableStore.open(tmp_path)
        populate(store, tuples=2)
        store.close()
        (_, path), = store_wal.list_segments(tmp_path / WAL_SUBDIR)
        data = bytearray(path.read_bytes())
        data[-3] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptLogError):
            verify_data_dir(tmp_path)

    def test_wal_disagreeing_with_snapshot_chain_fails(self, tmp_path):
        store = DurableStore.open(tmp_path, snapshot_every=1)
        populate(store, tuples=1)

        def capture():
            return store_snapshot.SnapshotState(
                queries=[
                    QueryStorage(
                        envelope=make_envelope(),
                        meta=QueryMeta("s_agg"),
                    )
                ]
            )

        assert run(store.maybe_snapshot(capture)) is True
        store.close()
        # Rewrite a WAL record the snapshot's chain already covers, with
        # a *valid* CRC: only the commitment comparison can catch it.
        (_, path), = store_wal.list_segments(tmp_path / WAL_SUBDIR)
        scan = store_wal.scan_segments(tmp_path / WAL_SUBDIR, mode="verify")
        rewritten = store_wal.encode_header(1) + b"".join(
            store_wal.encode_record(
                seq, body if seq != 2 else body[:-1] + b"\x00"
            )
            for seq, body in scan.records
        )
        path.write_bytes(rewritten)
        with pytest.raises(CorruptLogError, match="disagrees|chain"):
            verify_data_dir(tmp_path)

    @pytest.mark.parametrize(
        "at, match",
        [(0, "bad segment magic"), (len(store_wal.MAGIC), "unsupported WAL segment version")],
        ids=["magic", "version"],
    )
    def test_open_refuses_a_log_it_cannot_read_and_keeps_it(self, tmp_path, at, match):
        """A segment header flipped in place: ``open`` raises instead of
        taking the log for a torn tail, and every file stays on disk."""
        store = DurableStore.open(tmp_path)
        populate(store, tuples=2)
        store.close()
        (_, path), = store_wal.list_segments(tmp_path / WAL_SUBDIR)
        data = bytearray(path.read_bytes())
        data[at] ^= 0x01
        path.write_bytes(bytes(data))
        files = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        with pytest.raises(CorruptLogError, match=match):
            DurableStore.open(tmp_path)
        with pytest.raises(CorruptLogError, match=match):
            verify_data_dir(tmp_path)
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == files

    def test_fsync_policy_validation(self, tmp_path):
        with pytest.raises(StoreError, match="fsync"):
            DurableStore.open(tmp_path, fsync_policy="always")


class TestInlineChain:
    def test_the_chain_is_the_logs_and_a_snapshot_reopens_to_it(self, tmp_path):
        """The chain is extended where the record is appended: after
        any append it equals a chain recomputed from the segments, and a
        snapshot taken right behind an append holds every head."""
        store = DurableStore.open(tmp_path, snapshot_every=1)
        populate(store, tuples=5)
        head = store.commitment()
        assert head.count == 6  # post_query + 5 submissions
        recomputed = CommitmentChain()
        for seq, body in store_wal.scan_segments(
            tmp_path / WAL_SUBDIR, mode="verify"
        ).records:
            recomputed.append(seq, body)
        assert recomputed.commitment() == head
        assert run(store.maybe_snapshot(store_snapshot.SnapshotState))
        store.close()
        reopened = DurableStore.open(tmp_path)
        assert reopened.recovered.snapshot_seq == 6
        assert reopened.commitment() == head
        reopened.close()


class TestWirePassThrough:
    """The dispatcher journals the raw wire span of a submission instead
    of re-encoding it; the codec is canonical, so both spellings must
    produce the same WAL bytes and therefore the same chain."""

    def test_wire_and_reencoded_bodies_are_identical(self, tmp_path):
        from repro.net import frames
        from repro.net.frames import Writer
        from repro.store import records as store_records

        block = EncryptedTupleBlock.from_tuples([EncryptedTuple(b"ct-payload", b"tag-x")])
        w = Writer()
        w.text("q1")
        frames.write_tuple_block(w, block)
        wire = w.getvalue()

        captured = []
        journal = store_records.StoreJournal(
            lambda body: captured.append(body) or len(captured)
        )
        journal.record("submit_tuple_block", "q1", block)
        journal.record("submit_tuple_block", "q1", block, wire=memoryview(wire))
        reencoded = captured[0]
        prefix, raw = captured[1]
        assert prefix + bytes(raw) == reencoded
