"""Append-only write-ahead log for SSI state mutations.

Layout on disk (under ``<data-dir>/wal/``)::

    wal-0000000000000001.log        segment named by its first sequence
    wal-0000000000004096.log

Each segment starts with a 13-byte header::

    +------+---------+---------------+
    | RWAL | version | base seq (u64)|
    +------+---------+---------------+

followed by records framed as::

    +---------------+-----------+----------+------+
    | body len (u32)| crc32(u32)| seq (u64)| body |
    +---------------+-----------+----------+------+

The CRC covers ``seq || body``.  Sequence numbers are global across
segments and strictly contiguous; carrying the seq *inside* the CRC'd
frame means a byte-duplicated record (a valid frame repeated by a
buggy disk layer or an attacker) fails the contiguity check instead of
silently double-applying.

One repair rule: a crash can only damage the end of the log, so only
the last segment can hold a torn tail.  ``repair`` (startup) truncates
the last segment at its first bad record, or removes it when it is
shorter than its header (a crash mid-rotation); recovery therefore
always yields a *prefix* of the appended history.  Any other fault —
a bad record or header in an earlier segment, a segment named for
another sequence than the previous segment's end, or a complete header
repair cannot read (bad magic, another format version, a base sequence
other than its file name's) — raises :class:`~repro.exceptions.CorruptLogError`
and modifies nothing: a damaged older segment stops the start instead
of costing every acknowledged record after it.  ``verify``
(``repro verify-log``) raises on any fault and modifies nothing.

Write path: segments are raw unbuffered :class:`io.FileIO` streams, so
``write()`` from the event-loop thread and ``os.fsync()`` from an
executor thread never race over Python-level buffers.  The repair rule
holds only if a later segment implies that every earlier one is
complete, so rotation fsyncs the segment it retires — or, on the first
append after a restart, the log's last segment — before it creates the
next one: one fsync per segment, whatever the fsync policy.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.exceptions import CorruptLogError, StoreError

MAGIC = b"RWAL"
#: v2: records 4 and 7 carry their blocks in the block codec, and
#: record 2 (the per-item submission) is gone
WAL_VERSION = 2
HEADER_BYTES = len(MAGIC) + 1 + 8  # magic + version + base seq
RECORD_HEADER_BYTES = 4 + 4 + 8  # body len + crc + seq
_RECORD_HEADER = struct.Struct(">IIQ")

#: ceiling on one record body — matches the wire frame limit, since a
#: record never carries more than one request's payload
MAX_RECORD_BYTES = 16 * 1024 * 1024

#: default segment rotation threshold
DEFAULT_SEGMENT_BYTES = 64 * 1024 * 1024

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"


def segment_name(base_seq: int) -> str:
    return f"{_SEGMENT_PREFIX}{base_seq:016d}{_SEGMENT_SUFFIX}"


def numbered_file(path: Path, prefix: str, suffix: str) -> int | None:
    """The number in a ``<prefix><digits><suffix>`` file name, else None."""
    name = path.name
    digits = name[len(prefix) : -len(suffix)]
    if name.startswith(prefix) and name.endswith(suffix) and digits.isdigit():
        return int(digits)
    return None


def list_numbered(directory: Path, prefix: str, suffix: str) -> list[tuple[int, Path]]:
    """(number, path) for every ``<prefix><digits><suffix>`` file in
    *directory*, in number order — WAL segments and snapshots alike."""
    if not directory.is_dir():
        return []
    found = [(numbered_file(path, prefix, suffix), path) for path in directory.iterdir()]
    return sorted((number, path) for number, path in found if number is not None)


def list_segments(directory: Path) -> list[tuple[int, Path]]:
    """(base_seq, path) for every segment file, in sequence order."""
    return list_numbered(directory, _SEGMENT_PREFIX, _SEGMENT_SUFFIX)


def encode_record(seq: int, body: bytes) -> bytes:
    if len(body) > MAX_RECORD_BYTES:
        raise StoreError(
            f"WAL record of {len(body)} bytes exceeds the "
            f"{MAX_RECORD_BYTES}-byte limit"
        )
    seq_bytes = struct.pack(">Q", seq)
    crc = zlib.crc32(seq_bytes + body) & 0xFFFFFFFF
    return struct.pack(">II", len(body), crc) + seq_bytes + body


def encode_header(base_seq: int) -> bytes:
    return MAGIC + struct.pack(">BQ", WAL_VERSION, base_seq)


@dataclass
class ScanResult:
    """Everything a scan learned about a WAL directory."""

    records: list[tuple[int, bytes]] = field(default_factory=list)
    #: the sequence the next append should use
    next_seq: int = 1
    #: bytes discarded by torn-tail repair (0 under ``verify``)
    truncated_bytes: int = 0
    #: whether repair cut the last segment or removed it
    repaired: bool = False
    #: segment files that survived the scan, in order
    segments: list[Path] = field(default_factory=list)


class _Corruption(Exception):
    """Internal scan signal: (reason, valid_bytes_in_current_segment);
    ``torn`` is False for a complete header, which no crash leaves."""

    def __init__(self, reason: str, valid_bytes: int, torn: bool = True) -> None:
        super().__init__(reason)
        self.reason = reason
        self.valid_bytes = valid_bytes
        self.torn = torn


def _scan_segment(
    data: bytes, expected_seq: int
) -> tuple[list[tuple[int, bytes]], int]:
    """Parse one segment's bytes; returns (records, next expected seq).
    Raises :class:`_Corruption` at the first violation, reporting how
    many bytes were valid before it."""
    if len(data) < HEADER_BYTES:
        raise _Corruption("segment shorter than its header", 0)
    if data[: len(MAGIC)] != MAGIC:
        raise _Corruption("bad segment magic", 0, torn=False)
    version = data[len(MAGIC)]
    if version != WAL_VERSION:
        raise _Corruption(
            f"unsupported WAL segment version {version} (this build reads "
            f"{WAL_VERSION})", 0, torn=False,
        )
    (base_seq,) = struct.unpack(">Q", data[len(MAGIC) + 1 : HEADER_BYTES])
    if base_seq != expected_seq:
        raise _Corruption(
            f"segment base seq {base_seq}, expected {expected_seq}", 0, torn=False
        )
    seq = base_seq
    pos = HEADER_BYTES
    view = memoryview(data)
    records: list[tuple[int, bytes]] = []
    while pos < len(data):
        if pos + RECORD_HEADER_BYTES > len(data):
            raise _Corruption("torn record header", pos)
        body_len, crc, rec_seq = _RECORD_HEADER.unpack_from(data, pos)
        if body_len > MAX_RECORD_BYTES:
            raise _Corruption(
                f"record declares {body_len} bytes, above the limit", pos
            )
        end = pos + RECORD_HEADER_BYTES + body_len
        if end > len(data):
            raise _Corruption("torn record body", pos)
        # the CRC covers seq || body, read in place; the body is copied once
        if zlib.crc32(view[pos + 8 : end]) & 0xFFFFFFFF != crc:
            raise _Corruption(f"CRC mismatch at record seq {seq}", pos)
        if rec_seq != seq:
            raise _Corruption(
                f"record seq {rec_seq} breaks contiguity (expected {seq})",
                pos,
            )
        records.append((seq, data[pos + RECORD_HEADER_BYTES : end]))
        seq += 1
        pos = end
    return records, seq


def scan_segments(directory: Path, mode: str = "repair") -> ScanResult:
    """Read every record from a WAL directory.

    ``mode="repair"`` cuts a torn tail from the last segment — at its
    first bad record, or the whole file when it is shorter than its
    header — and raises :class:`CorruptLogError` on a fault anywhere
    else; ``mode="verify"`` raises on any fault.  Neither modifies a
    log it raises on.
    """
    if mode not in ("repair", "verify"):
        raise StoreError(f"unknown WAL scan mode {mode!r}")
    result = ScanResult()
    segments = list_segments(directory)
    # Each segment is named for its base sequence, and each after the
    # first starts where the one before it ended.
    expected = segments[0][0] if segments else 1
    for index, (name_base, path) in enumerate(segments):
        if name_base != expected:
            raise CorruptLogError(
                f"{path.name}: segment named for seq {name_base}, expected {expected}"
            )
        data = path.read_bytes()
        try:
            records, next_seq = _scan_segment(data, expected)
        except _Corruption as exc:
            if mode == "verify" or not exc.torn or index + 1 < len(segments):
                raise CorruptLogError(f"{path.name}: {exc.reason}") from None
            # Torn-tail repair: keep the valid prefix of the last segment.
            result.truncated_bytes = len(data) - exc.valid_bytes
            result.repaired = True
            if exc.valid_bytes == 0:
                path.unlink()
                break
            with open(path, "r+b") as fh:
                fh.truncate(exc.valid_bytes)
            records, next_seq = _scan_segment(data[: exc.valid_bytes], expected)
        result.records.extend(records)
        result.segments.append(path)
        result.next_seq = next_seq
        expected = next_seq
    return result


class WalWriter:
    """Appends records to the active segment, rotating as it fills.

    Not itself thread-safe for concurrent ``append`` calls — the SSI
    dispatcher appends from the event-loop thread only.  ``fsync`` *is*
    safe to call from another thread (the group-commit executor): it
    synchronizes with rotation over an internal lock and flushes the
    active segment; rotation itself synced every segment it retired.
    """

    def __init__(
        self,
        directory: Path,
        next_seq: int = 1,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    ) -> None:
        if next_seq < 1:
            raise StoreError(f"invalid WAL start sequence {next_seq}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = max(HEADER_BYTES + RECORD_HEADER_BYTES, segment_bytes)
        self._next_seq = next_seq
        self._file: "os.PathLike | None" = None
        self._raw = None  # active io.FileIO
        self._raw_path: Path | None = None
        self._written = 0
        #: retired (already synced) segment FileIOs, closed by the next
        #: fsync: an executor thread may still be syncing one
        self._retired: list = []
        self._lock = threading.Lock()
        #: whether the active segment has unsynced bytes
        self._active_dirty = False

    # ------------------------------------------------------------------ #
    @property
    def next_seq(self) -> int:
        return self._next_seq

    @property
    def last_seq(self) -> int:
        return self._next_seq - 1

    def active_path(self) -> Path | None:
        return self._raw_path

    def append(self, body: bytes | Sequence[bytes]) -> int:
        """Write one record; returns its sequence number.  The bytes are
        in the OS page cache after this call — durable only after the
        next :meth:`fsync`.

        The body may be given as chunks: the frame header (CRC over
        their concatenation) and each chunk are written separately, so
        a caller holding a large payload it did not assemble (e.g. the
        raw wire bytes of a batched submission) never pays a join."""
        if isinstance(body, (bytes, bytearray, memoryview)):
            parts: tuple = (body,)
        else:
            parts = tuple(body)
        total = sum(len(part) for part in parts)
        if total > MAX_RECORD_BYTES:
            raise StoreError(
                f"WAL record of {total} bytes exceeds the "
                f"{MAX_RECORD_BYTES}-byte limit"
            )
        seq = self._next_seq
        if self._raw is None or self._written >= self.segment_bytes:
            self._rotate(seq)
        seq_bytes = struct.pack(">Q", seq)
        crc = zlib.crc32(seq_bytes)
        for part in parts:
            crc = zlib.crc32(part, crc)
        assert self._raw is not None
        header = struct.pack(">II", total, crc & 0xFFFFFFFF) + seq_bytes
        buffers = [header, *parts]
        expected = RECORD_HEADER_BYTES + total
        written = os.writev(self._raw.fileno(), buffers)
        if written != expected:  # pragma: no cover - regular-file writev
            # is effectively all-or-error; finish the tail defensively
            flat = memoryview(header + b"".join(bytes(p) for p in parts))
            while written < expected:
                written += self._raw.write(flat[written:])
        self._written += RECORD_HEADER_BYTES + total
        self._active_dirty = True
        self._next_seq = seq + 1
        return seq

    def _rotate(self, base_seq: int) -> None:
        # Sync the segment that ends before base_seq before a later one
        # can exist (the repair rule in scan_segments).
        if self._raw is not None:
            os.fsync(self._raw.fileno())
        else:
            segments = list_segments(self.directory)
            if segments:
                fd = os.open(segments[-1][1], os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
        path = self.directory / segment_name(base_seq)
        existing = path.stat().st_size if path.exists() else 0
        raw = open(path, "ab", buffering=0)
        if existing == 0:
            raw.write(encode_header(base_seq))
            existing = HEADER_BYTES
        with self._lock:
            if self._raw is not None:
                self._retired.append(self._raw)
            self._raw = raw
            self._raw_path = path
            self._written = existing
            self._active_dirty = True  # header (or resumed tail) unsynced

    def fsync(self) -> None:
        """Flush every byte appended so far to stable storage.  Safe to
        call from an executor thread while the loop thread appends —
        records appended *during* the fsync are simply covered by the
        next one."""
        with self._lock:
            retired, self._retired = self._retired, []
            active = self._raw if self._active_dirty else None
            self._active_dirty = False
        for raw in retired:
            raw.close()
        if active is not None:
            try:
                os.fsync(active.fileno())
            except ValueError:
                pass  # closed by a concurrent close(); nothing left to sync

    def gc(self, up_to_seq: int) -> int:
        """Unlink segments whose every record is ``<= up_to_seq`` (they
        are fully covered by a retained snapshot).  The active segment
        is never removed.  Returns the number of segments deleted."""
        segments = list_segments(self.directory)
        removed = 0
        for index, (base, path) in enumerate(segments):
            if path == self._raw_path:
                continue
            # A segment's records end where the next segment begins.
            if index + 1 >= len(segments):
                continue
            next_base = segments[index + 1][0]
            if next_base - 1 <= up_to_seq:
                path.unlink()
                removed += 1
        return removed

    def close(self) -> None:
        self.fsync()
        with self._lock:
            if self._raw is not None:
                self._raw.close()
                self._raw = None
