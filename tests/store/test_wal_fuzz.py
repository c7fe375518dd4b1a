"""Property-based fuzzing of the WAL reader.

A crash can only damage the end of the log.  For any append history and
any single corruption of its last segment — truncation at an arbitrary
byte, a bit flip, or a duplicated record frame — the repair scan must
return a clean *prefix* of the history (never garbage, never an
unhandled exception), and the repaired directory must then pass a
strict verify scan.  The exception is a flip in a segment header: it
must make repair raise :class:`CorruptLogError` (a complete header it
cannot read, or whose base sequence is not the one its file name or the
segment before it gives, is not a torn tail).  A flip in any earlier
segment must make repair raise too, and a raising repair modifies
nothing.  The verify
scan itself must either accept the log or raise :class:`CorruptLogError`,
nothing else.
"""

import shutil
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import CorruptLogError
from repro.store import wal

BODIES = st.lists(st.binary(min_size=0, max_size=48), min_size=1, max_size=12)


def build_log(directory: Path, bodies, segment_bytes=160):
    writer = wal.WalWriter(directory, segment_bytes=segment_bytes)
    for body in bodies:
        writer.append(body)
    writer.close()


def corrupt(directory: Path, kind: str, position: int, bit: int, bodies):
    """Apply one corruption to the on-disk segment byte stream; returns
    a flip's offset inside the segment it hit (None for the other
    kinds) and whether the damage is in the last segment."""
    segments = wal.list_segments(directory)
    sizes = [path.stat().st_size for _, path in segments]
    total = sum(sizes)
    if kind == "flip":
        offset = position % total
        for (_, path), size in zip(segments, sizes):
            if offset < size:
                data = bytearray(path.read_bytes())
                data[offset] ^= 1 << (bit % 8)
                path.write_bytes(bytes(data))
                return offset, path == segments[-1][1]
            offset -= size
    elif kind == "truncate":
        # Model a crash losing an arbitrary tail of the byte stream.
        cut = position % total
        seen = 0
        for (_, path), size in zip(segments, sizes):
            if seen >= cut:
                path.unlink()
            elif seen + size > cut:
                with open(path, "r+b") as fh:
                    fh.truncate(cut - seen)
            seen += size
    else:  # duplicate: re-append an earlier record's valid frame
        seq = position % len(bodies) + 1
        with open(segments[-1][1], "ab") as fh:
            fh.write(wal.encode_record(seq, bodies[seq - 1]))
    return None, True


@settings(max_examples=60, deadline=None)
@given(
    bodies=BODIES,
    kind=st.sampled_from(["truncate", "flip", "duplicate"]),
    position=st.integers(min_value=0, max_value=1 << 20),
    bit=st.integers(min_value=0, max_value=7),
)
def test_repair_always_recovers_a_clean_prefix(bodies, kind, position, bit):
    workdir = Path(tempfile.mkdtemp(prefix="walfuzz-"))
    try:
        build_log(workdir, bodies)
        flipped, in_last = corrupt(workdir, kind, position, bit, bodies)

        # Verify mode: accepts or raises CorruptLogError — never crashes,
        # never modifies.
        files = {p: p.read_bytes() for _, p in wal.list_segments(workdir)}
        try:
            wal.scan_segments(workdir, mode="verify")
        except CorruptLogError:
            pass
        assert files == {p: p.read_bytes() for _, p in wal.list_segments(workdir)}

        # Repair mode: the surviving records are a contiguous prefix of
        # the appended history, byte-for-byte.
        try:
            scan = wal.scan_segments(workdir, mode="repair")
        except CorruptLogError:
            assert flipped is not None
            assert not in_last or flipped < wal.HEADER_BYTES
            assert files == {p: p.read_bytes() for _, p in wal.list_segments(workdir)}
            return
        assert in_last, "a flip outside the last segment was repaired"
        assert flipped is None or flipped >= wal.HEADER_BYTES
        recovered = [body for _, body in scan.records]
        assert recovered == bodies[: len(recovered)]
        assert [seq for seq, _ in scan.records] == list(
            range(1, len(recovered) + 1)
        )

        # And the repaired directory now passes strict verification.
        again = wal.scan_segments(workdir, mode="verify")
        assert [body for _, body in again.records] == recovered
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
