"""DurableStore end-to-end: journal, crash replay, snapshots, GC,
clean shutdown and offline verification."""

import asyncio

import pytest

from repro.core.messages import (
    Credential,
    EncryptedPartial,
    EncryptedTuple,
    QueryEnvelope,
)
from repro.exceptions import CorruptLogError, StoreError
from repro.net.frames import QueryMeta
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
        journal.set_idem("client-a", i + 1)
        journal.record(
            "submit_tuples", query_id, [EncryptedTuple(f"ct-{i}".encode(), b"tag")]
        )
        store.recovered.ssi.submit_tuples(
            query_id, [EncryptedTuple(f"ct-{i}".encode(), b"tag")]
        )


class TestCrashRecovery:
    def test_replay_restores_collected_state(self, tmp_path):
        store = DurableStore.open(tmp_path)
        populate(store, tuples=3)
        run(store.sync(store.last_seq))
        head_before = store.commitment()
        # No close(): models SIGKILL.  The WAL alone must rebuild it.
        store._wal.close()

        reopened = DurableStore.open(tmp_path)
        assert not reopened.recovered.clean
        assert reopened.recovered.replayed_records == 4
        ssi = reopened.recovered.ssi
        assert "q1" in ssi.envelope_map()
        assert len(ssi.storage_map()["q1"].all_collected()) == 3
        # The chain is rebuilt to the identical head: nothing lost,
        # nothing rewritten.
        assert reopened.commitment() == head_before
        assert reopened.recovered.metas["q1"].protocol == "s_agg"
        assert reopened.recovered.tds_ids["q1"] == "tds-1"
        reopened.close()

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
                store_snapshot.QuerySnapshot(
                    query_id="q1",
                    envelope=make_envelope(),
                    meta=QueryMeta("s_agg"),
                    tds_id="tds-1",
                    collected=list(
                        store.recovered.ssi.storage_map()["q1"].collected
                    ),
                )
            ],
        )
        store.close(state)

        reopened = DurableStore.open(tmp_path)
        assert reopened.recovered.clean
        assert reopened.recovered.replayed_records == 0
        assert len(
            reopened.recovered.ssi.storage_map()["q1"].all_collected()
        ) == 2
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
                    store_snapshot.QuerySnapshot(
                        query_id="q1",
                        envelope=make_envelope(),
                        meta=QueryMeta("s_agg"),
                        tds_id="tds-1",
                        collected=list(ssi.storage_map()["q1"].collected),
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

    def test_corrupt_newest_snapshot_falls_back(self, tmp_path):
        store = DurableStore.open(tmp_path, snapshot_every=1)
        populate(store, tuples=2)

        def capture():
            return store_snapshot.SnapshotState(
                queries=[
                    store_snapshot.QuerySnapshot(
                        query_id="q1",
                        envelope=make_envelope(),
                        meta=QueryMeta("s_agg"),
                        collected=list(
                            store.recovered.ssi.storage_map()["q1"].collected
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
        newest = snaps[-1][1]
        data = bytearray(newest.read_bytes())
        data[len(data) // 2] ^= 0x01
        newest.write_bytes(bytes(data))

        reopened = DurableStore.open(tmp_path)
        # Fallback to the older snapshot; WAL records past it replayed.
        assert "q1" in reopened.recovered.ssi.envelope_map()
        assert reopened.commitment() == store.commitment()
        reopened.close()


class TestVerifyDataDir:
    def test_intact_dir_verifies(self, tmp_path):
        store = DurableStore.open(tmp_path)
        populate(store, tuples=2)
        store.journal.record(
            "submit_partials", "q1", [EncryptedPartial(b"cp", None)]
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
                    store_snapshot.QuerySnapshot(
                        query_id="q1",
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

        tuples = [EncryptedTuple(b"ct-payload", b"tag-x")]
        w = Writer()
        w.text("q1")
        frames.write_items(w, tuples)
        wire = w.getvalue()

        captured = []
        journal = store_records.StoreJournal(
            lambda body: captured.append(body) or len(captured)
        )
        journal.record("submit_tuples", "q1", tuples)
        journal.record("submit_tuples", "q1", tuples, wire=memoryview(wire))
        reencoded = captured[0]
        prefix, raw = captured[1]
        assert prefix + bytes(raw) == reencoded
