"""Snapshot encode/decode integrity, atomic writes, retention."""

import hashlib
from pathlib import Path

import pytest

from repro.core.messages import (
    Credential,
    EncryptedTuple,
    EncryptedTupleBlock,
    QueryEnvelope,
)
from repro.exceptions import CorruptLogError
from repro.net.frames import QueryMeta
from repro.store import snapshot
from repro.store.commitment import CommitmentChain


PARENT_SNAPSHOTS = (
    Path(__file__).parents[1] / "net" / "golden" / "parent_data_dir" / "snapshots"
)


def make_envelope(query_id="q1"):
    return QueryEnvelope(
        query_id=query_id,
        encrypted_query=b"\x01\x02ciphertext",
        credential=Credential("alice", frozenset({"public"}), b"sig"),
        size_tuples=8,
    )


def items(*payloads):
    return EncryptedTupleBlock.from_tuples([EncryptedTuple(p) for p in payloads])


def make_state(wal_seq=3):
    chain = CommitmentChain()
    for seq in range(1, wal_seq + 1):
        chain.append(seq, f"r{seq}".encode())
    block = EncryptedTupleBlock(
        payloads=b"abcdef", offsets=(0, 3, 6), tags=(b"t1", None)
    )
    return snapshot.SnapshotState(
        wal_seq=wal_seq,
        chain_heads=chain.heads(),
        applied_seq={"client-a": 7, "client-b": 2},
        applied_ahead={"client-a": {9, 11}},
        queries=[
            snapshot.QuerySnapshot(
                query_id="q1",
                envelope=make_envelope(),
                meta=QueryMeta("s_agg", {"alpha": 2.0}),
                tds_id="tds-3",
                collection_closed=True,
                collected_blocks=[block],
                partials=[items(b"cp")],
                result_rows=[items(b"row1", b"row2")],
            )
        ],
        clean=True,
    )


class TestCodec:
    def test_roundtrip(self):
        state = make_state()
        decoded = snapshot.decode_snapshot(snapshot.encode_snapshot(state))
        assert decoded.wal_seq == state.wal_seq
        assert decoded.chain_heads == state.chain_heads
        assert decoded.applied_seq == state.applied_seq
        assert decoded.applied_ahead == state.applied_ahead
        assert decoded.clean is True
        (q,) = decoded.queries
        assert q.envelope == state.queries[0].envelope
        assert q.meta.protocol == "s_agg"
        assert q.tds_id == "tds-3"
        assert q.collection_closed is True
        assert q.collected_blocks == state.queries[0].collected_blocks
        assert q.partials == state.queries[0].partials
        assert q.result_rows == [items(b"row1", b"row2")]

    def test_the_encoding_of_a_block_only_state_is_pinned(self):
        # captured before the per-tuple lane left the SSI: the lane is
        # still written, as an empty list, so the bytes did not move
        assert hashlib.sha256(snapshot.encode_snapshot(make_state())).hexdigest() == (
            "0c5b42b75980ebcd8142dd30cca3ce39788141af345312169e16131f0fa2dde3"
        )

    def test_an_older_builds_per_tuple_lane_leads_the_blocks(self):
        # the parent data dir's q-driver: one per-item submission of two
        # tuples, then a block of two — served in that order back then
        path = PARENT_SNAPSHOTS / snapshot.snapshot_name(24)
        queries = {q.query_id: q for q in snapshot.load_snapshot(path).queries}
        lane, block = queries["q-driver"].collected_blocks
        assert list(lane.tuples()) == [
            EncryptedTuple(b"ct-1", None), EncryptedTuple(b"ct-2", b"tag"),
        ]
        assert list(block.tuples()) == [
            EncryptedTuple(b"ct-3", b"g1"), EncryptedTuple(b"ct-4", None),
        ]
        assert len(queries["q-fleet"].collected_blocks) == 1  # no lane: no block

    def test_crc_detects_any_flip(self):
        data = bytearray(snapshot.encode_snapshot(make_state()))
        data[len(data) // 2] ^= 0x01
        with pytest.raises(CorruptLogError):
            snapshot.decode_snapshot(bytes(data))

    def test_bad_magic_and_version(self):
        data = snapshot.encode_snapshot(make_state())
        with pytest.raises(CorruptLogError, match="magic"):
            snapshot.decode_snapshot(b"XXXX" + data[4:])
        with pytest.raises(CorruptLogError, match="truncated|framing|shorter"):
            snapshot.decode_snapshot(data[:3])

    def test_head_count_must_match_wal_seq(self):
        state = make_state()
        state.chain_heads = state.chain_heads[:-1]  # one head short
        with pytest.raises(CorruptLogError, match="chain"):
            snapshot.decode_snapshot(snapshot.encode_snapshot(state))


class TestFiles:
    def test_write_load_list(self, tmp_path):
        state = make_state(wal_seq=5)
        path = snapshot.write_snapshot(tmp_path, state)
        assert path.name == snapshot.snapshot_name(5)
        assert not list(tmp_path.glob("*.tmp"))  # atomic: no temp left
        loaded = snapshot.load_snapshot(path)
        assert loaded.wal_seq == 5
        assert snapshot.list_snapshots(tmp_path) == [(5, path)]

    def test_prune_keeps_newest(self, tmp_path):
        for seq in (3, 5, 8, 13):
            state = make_state(wal_seq=seq)
            snapshot.write_snapshot(tmp_path, state)
        removed = snapshot.prune_snapshots(tmp_path, keep=2)
        assert removed == 2
        assert [seq for seq, _ in snapshot.list_snapshots(tmp_path)] == [8, 13]
