"""Compact snapshots of the SSI's live query state.

A snapshot bounds recovery time (replay starts from the snapshot's WAL
sequence, not from genesis) and is what allows WAL segment GC.  It
captures, at one instant between dispatched requests:

* every posted query's record (:class:`~repro.ssi.storage.QueryStorage`):
  envelope, scheduling meta, personal-querybox target,
  collection/result flags, the collected covering result (its columnar
  blocks, preserved as stored), pending partials and result rows;
* the dispatcher's idempotency dedup state (watermarks + ahead sets) —
  required so client retries spanning a crash are still dropped;
* the full commitment-chain head list, so ``head_at(count)`` keeps
  answering for counts whose WAL segments have been GC'd.

The observer's attacker-view log is deliberately *not* snapshotted: it
models what the honest-but-curious operator learned, not protocol
state — durability would neither help nor harm the protocol, and the
threat model already assumes the operator records everything out of
band.

File format: ``RSNP`` magic + u8 version, a frames-encoded payload, and
a trailing crc32 over everything before it.  Written to a temp file,
fsynced, then atomically renamed to ``snapshot-<wal_seq>.snap``.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.messages import EncryptedTupleBlock
from repro.exceptions import CorruptLogError, ProtocolError, StoreError
from repro.net import frames
from repro.net.frames import QueryMeta, Reader, Writer
from repro.ssi.storage import QueryStorage
from repro.store.commitment import DIGEST_BYTES
from repro.store.wal import list_numbered, numbered_file

MAGIC = b"RSNP"
#: v2: partials and result rows are block lists like the collected
#: blocks, and the per-tuple lane is gone; a v1 snapshot is refused
SNAPSHOT_VERSION = 2

_PREFIX = "snapshot-"
_SUFFIX = ".snap"

#: retained snapshot files; two generations so a snapshot corrupted by
#: the crash being recovered from still leaves a consistent fallback
KEEP_SNAPSHOTS = 2


@dataclass
class SnapshotState:
    """Everything a snapshot file carries."""

    #: WAL sequence of the last record folded into this snapshot
    wal_seq: int = 0
    #: commitment-chain heads for records 1..wal_seq
    chain_heads: list[bytes] = field(default_factory=list)
    #: dispatcher idempotency watermarks: client id -> contiguous seq
    applied_seq: dict[str, int] = field(default_factory=dict)
    #: out-of-order applied seqs above each watermark
    applied_ahead: dict[str, set[int]] = field(default_factory=dict)
    #: the record of every posted query, in posting order
    queries: list[QueryStorage] = field(default_factory=list)
    #: True only for the snapshot written by a graceful shutdown
    clean: bool = False


def snapshot_name(wal_seq: int) -> str:
    return f"{_PREFIX}{wal_seq:016d}{_SUFFIX}"


def list_snapshots(directory: Path) -> list[tuple[int, Path]]:
    """(wal_seq, path) for every snapshot file, oldest first."""
    return list_numbered(directory, _PREFIX, _SUFFIX)


# --------------------------------------------------------------------- #
# encoding
# --------------------------------------------------------------------- #
def _write_blocks(w: Writer, blocks: list[EncryptedTupleBlock], tagged: bool) -> None:
    w.u32(len(blocks))
    for block in blocks:
        frames.write_tuple_block(w, block, tagged)


def _read_blocks(r: Reader, tagged: bool) -> list[EncryptedTupleBlock]:
    return [frames.read_tuple_block(r, tagged) for _ in range(r.count(limit=100_000))]


def _write_query(w: Writer, q: QueryStorage) -> None:
    w.text(q.envelope.query_id)
    frames.write_envelope(w, q.envelope)
    frames.write_meta(w, q.meta or QueryMeta())
    w.opt_text(q.tds_id)
    w.boolean(q.collection_closed)
    w.boolean(q.result_ready)
    _write_blocks(w, q.collected_blocks, tagged=True)
    _write_blocks(w, q.partials, tagged=True)
    _write_blocks(w, q.result_rows, tagged=False)


def _read_query(r: Reader) -> QueryStorage:
    query_id = r.text()
    envelope = frames.read_envelope(r)
    if query_id != envelope.query_id:
        raise ProtocolError(
            f"query {query_id!r} carries the envelope of {envelope.query_id!r}"
        )
    meta = frames.read_meta(r)
    tds_id = r.opt_text()
    closed = r.boolean()
    ready = r.boolean()
    return QueryStorage(
        envelope=envelope,
        meta=meta,
        tds_id=tds_id,
        collection_closed=closed,
        result_ready=ready,
        collected_blocks=_read_blocks(r, tagged=True),
        partials=_read_blocks(r, tagged=True),
        result_rows=_read_blocks(r, tagged=False),
    )


def encode_snapshot(state: SnapshotState) -> bytes:
    w = Writer()
    w.i64(state.wal_seq)
    w.boolean(state.clean)
    heads = b"".join(state.chain_heads)
    if len(heads) != DIGEST_BYTES * len(state.chain_heads):
        raise StoreError("malformed commitment head in snapshot state")
    w.u32(len(state.chain_heads))
    w.blob(heads)
    w.u32(len(state.applied_seq))
    for client_id in sorted(state.applied_seq):
        w.text(client_id)
        w.i64(state.applied_seq[client_id])
        ahead = sorted(state.applied_ahead.get(client_id, ()))
        w.u32(len(ahead))
        for seq in ahead:
            w.i64(seq)
    w.u32(len(state.queries))
    for q in state.queries:
        _write_query(w, q)
    payload = w.getvalue()
    framed = MAGIC + struct.pack(">B", SNAPSHOT_VERSION) + payload
    return framed + struct.pack(">I", zlib.crc32(framed) & 0xFFFFFFFF)


def decode_snapshot(data: bytes) -> SnapshotState:
    if len(data) < len(MAGIC) + 1 + 4:
        raise CorruptLogError("snapshot file shorter than its framing")
    if data[: len(MAGIC)] != MAGIC:
        raise CorruptLogError("bad snapshot magic")
    version = data[len(MAGIC)]
    if version != SNAPSHOT_VERSION:
        raise CorruptLogError(
            f"unsupported snapshot version {version} (this build reads "
            f"{SNAPSHOT_VERSION})"
        )
    (crc,) = struct.unpack(">I", data[-4:])
    if zlib.crc32(data[:-4]) & 0xFFFFFFFF != crc:
        raise CorruptLogError("snapshot CRC mismatch")
    try:
        r = Reader(data[len(MAGIC) + 1 : -4])
        wal_seq = r.i64()
        clean = r.boolean()
        head_count = r.count(limit=100_000_000)
        heads_raw = r.blob()
        if len(heads_raw) != head_count * DIGEST_BYTES:
            raise ProtocolError(
                f"chain head buffer of {len(heads_raw)} bytes does not "
                f"match {head_count} heads"
            )
        chain_heads = [
            heads_raw[i * DIGEST_BYTES : (i + 1) * DIGEST_BYTES]
            for i in range(head_count)
        ]
        applied_seq: dict[str, int] = {}
        applied_ahead: dict[str, set[int]] = {}
        for _ in range(r.count(limit=1_000_000)):
            client_id = r.text()
            applied_seq[client_id] = r.i64()
            ahead = {r.i64() for _ in range(r.count(limit=1_000_000))}
            if ahead:
                applied_ahead[client_id] = ahead
        queries = [_read_query(r) for _ in range(r.count(limit=100_000))]
        r.expect_end()
        if len({q.envelope.query_id for q in queries}) != len(queries):
            raise ProtocolError("a query is listed twice")
    except ProtocolError as exc:
        raise CorruptLogError(f"undecodable snapshot: {exc}") from None
    if wal_seq != head_count:
        raise CorruptLogError(
            f"snapshot at WAL seq {wal_seq} carries {head_count} chain "
            "heads (must be equal: one record, one head)"
        )
    return SnapshotState(
        wal_seq=wal_seq,
        chain_heads=chain_heads,
        applied_seq=applied_seq,
        applied_ahead=applied_ahead,
        queries=queries,
        clean=clean,
    )


# --------------------------------------------------------------------- #
# file operations
# --------------------------------------------------------------------- #
def write_snapshot(directory: Path, state: SnapshotState) -> Path:
    """Atomically persist *state* as ``snapshot-<wal_seq>.snap``."""
    directory.mkdir(parents=True, exist_ok=True)
    data = encode_snapshot(state)
    final = directory / snapshot_name(state.wal_seq)
    tmp = directory / (final.name + ".tmp")
    with open(tmp, "wb", buffering=0) as fh:  # unbuffered: write then fsync
        fh.write(data)
        os.fsync(fh.fileno())
    os.replace(tmp, final)
    # Make the rename itself durable before anything relies on it.
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return final


def load_snapshot(path: Path) -> SnapshotState:
    """Read and check one snapshot file, its name included: WAL GC
    trusts the sequence in the name, so it must be the payload's."""
    try:
        state = decode_snapshot(path.read_bytes())
    except CorruptLogError as exc:
        raise CorruptLogError(f"{path.name}: {exc}") from None
    if state.wal_seq != numbered_file(path, _PREFIX, _SUFFIX):
        raise CorruptLogError(f"{path.name} claims WAL seq {state.wal_seq} in its payload")
    return state


def prune_snapshots(directory: Path, keep: int = KEEP_SNAPSHOTS) -> int:
    """Unlink all but the newest *keep* snapshots; returns the count
    removed."""
    snapshots = list_snapshots(directory)
    removed = 0
    for _, path in snapshots[:-keep] if keep > 0 else snapshots:
        path.unlink()
        removed += 1
    return removed
