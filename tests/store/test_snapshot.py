"""Snapshot encode/decode integrity, atomic writes, retention."""

import hashlib
import struct
import zlib
from pathlib import Path

import pytest

from repro.core.messages import (
    Credential,
    EncryptedTuple,
    EncryptedTupleBlock,
    QueryEnvelope,
)
from repro.exceptions import CorruptLogError
from repro.net.frames import QueryMeta, Writer
from repro.ssi.storage import QueryStorage
from repro.store import DurableStore, snapshot, verify_data_dir
from repro.store.commitment import CommitmentChain
from repro.store.recovery import SNAPSHOT_SUBDIR


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
            QueryStorage(
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
        # SNAPSHOT_VERSION 2: collected blocks, partials and result rows
        # are three lists of blocks in the one block codec
        assert hashlib.sha256(snapshot.encode_snapshot(make_state())).hexdigest() == (
            "9b0a7cc6eb488d21dd75ec9832f3c21bccec6725f4ef7c03bf9504a5a2d8c0b2"
        )

    def test_an_older_builds_snapshot_is_refused_by_its_version(self):
        # the parent data dir's: version 1, with a per-tuple lane and
        # per-item partials and rows this build no longer reads
        for _, path in snapshot.list_snapshots(PARENT_SNAPSHOTS):
            with pytest.raises(CorruptLogError, match="unsupported snapshot version 1"):
                snapshot.load_snapshot(path)

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
        older = data[:4] + bytes([snapshot.SNAPSHOT_VERSION - 1]) + data[5:-4]
        older += struct.pack(">I", zlib.crc32(older))
        with pytest.raises(CorruptLogError, match="unsupported snapshot version"):
            snapshot.decode_snapshot(older)

    def test_head_count_must_match_wal_seq(self):
        state = make_state()
        state.chain_heads = state.chain_heads[:-1]  # one head short
        with pytest.raises(CorruptLogError, match="chain"):
            snapshot.decode_snapshot(snapshot.encode_snapshot(state))


def malformed(case):
    """A snapshot of :func:`make_state` whose query list is malformed
    but whose CRC is valid: the CRC is written by whoever writes the
    file, and the operator may rewrite it (DESIGN §9)."""
    state = make_state()
    if case == "listed-twice":
        state.queries *= 2
        return snapshot.encode_snapshot(state)
    # the query-id field, then the envelope's own id: make the first lie
    ids = Writer().text("q1").getvalue()
    framed = snapshot.encode_snapshot(state)[:-4]
    framed = framed.replace(ids + ids, Writer().text("other").getvalue() + ids, 1)
    return framed + struct.pack(">I", zlib.crc32(framed))


@pytest.mark.parametrize("case", ["listed-twice", "id-not-its-envelopes"])
class TestAMalformedQueryListIsRefused:
    """A query listed twice, or under an id its envelope does not carry,
    is refused as corrupt when decoded.  The parent decoded both:
    ``repro verify-log`` passed the file, and ``open`` then failed with
    an error no caller handles (``DuplicateQueryError``, ``KeyError``)."""

    def test_decoding_refuses_it(self, case):
        with pytest.raises(CorruptLogError, match="twice|envelope of"):
            snapshot.decode_snapshot(malformed(case))

    def test_verify_log_and_open_refuse_it(self, case, tmp_path):
        snap_dir = tmp_path / SNAPSHOT_SUBDIR
        snap_dir.mkdir()
        name = snapshot.snapshot_name(make_state().wal_seq)
        (snap_dir / name).write_bytes(malformed(case))
        with pytest.raises(CorruptLogError):
            verify_data_dir(tmp_path)
        with pytest.raises(CorruptLogError):
            DurableStore.open(tmp_path)


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
