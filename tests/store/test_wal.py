"""WAL framing, rotation, torn-tail repair and segment GC."""

import os
import struct

import pytest

from repro.exceptions import CorruptLogError, StoreError
from repro.store import wal


def write_log(directory, bodies, segment_bytes=wal.DEFAULT_SEGMENT_BYTES):
    writer = wal.WalWriter(directory, segment_bytes=segment_bytes)
    for body in bodies:
        writer.append(body)
    writer.close()
    return writer


class TestRoundTrip:
    def test_append_scan_roundtrip(self, tmp_path):
        bodies = [f"record-{i}".encode() for i in range(20)]
        write_log(tmp_path, bodies)
        scan = wal.scan_segments(tmp_path, mode="verify")
        assert [body for _, body in scan.records] == bodies
        assert [seq for seq, _ in scan.records] == list(range(1, 21))
        assert scan.next_seq == 21
        assert scan.truncated_bytes == 0

    def test_empty_directory(self, tmp_path):
        scan = wal.scan_segments(tmp_path, mode="verify")
        assert scan.records == []
        assert scan.next_seq == 1

    def test_rotation_produces_contiguous_segments(self, tmp_path):
        bodies = [bytes(64) for _ in range(50)]
        write_log(tmp_path, bodies, segment_bytes=256)
        segments = wal.list_segments(tmp_path)
        assert len(segments) > 1
        # Each segment is named by the first sequence it holds.
        scan = wal.scan_segments(tmp_path, mode="verify")
        assert scan.next_seq == 51
        assert len(scan.segments) == len(segments)

    def test_reopen_resumes_sequence(self, tmp_path):
        write_log(tmp_path, [b"a", b"b"])
        scan = wal.scan_segments(tmp_path, mode="repair")
        writer = wal.WalWriter(tmp_path, next_seq=scan.next_seq)
        assert writer.append(b"c") == 3
        writer.close()
        scan = wal.scan_segments(tmp_path, mode="verify")
        assert [body for _, body in scan.records] == [b"a", b"b", b"c"]

    def test_oversized_record_rejected(self, tmp_path):
        writer = wal.WalWriter(tmp_path)
        with pytest.raises(StoreError, match="exceeds"):
            writer.append(b"x" * (wal.MAX_RECORD_BYTES + 1))
        writer.close()


class TestRepair:
    def test_torn_tail_truncated(self, tmp_path):
        write_log(tmp_path, [b"a", b"b", b"c"])
        (_, path), = wal.list_segments(tmp_path)
        good_size = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b"\x00\x01torn")
        scan = wal.scan_segments(tmp_path, mode="repair")
        assert [body for _, body in scan.records] == [b"a", b"b", b"c"]
        assert scan.truncated_bytes == 6
        assert path.stat().st_size == good_size
        # Repair leaves a log that verifies clean.
        wal.scan_segments(tmp_path, mode="verify")

    def test_bit_flip_drops_suffix_and_later_segments(self, tmp_path):
        write_log(tmp_path, [bytes(64) for _ in range(50)], segment_bytes=256)
        segments = wal.list_segments(tmp_path)
        assert len(segments) >= 3
        _, victim = segments[1]
        data = bytearray(victim.read_bytes())
        data[wal.HEADER_BYTES + 12] ^= 0xFF  # first record's body
        victim.write_bytes(bytes(data))

        scan = wal.scan_segments(tmp_path, mode="repair")
        # Everything before the flipped record survives, nothing after.
        assert scan.records
        assert scan.next_seq == segments[1][0]
        # The victim keeps its valid header (truncated in place); every
        # later segment is dropped outright.
        assert scan.dropped_segments == len(segments) - 2
        wal.scan_segments(tmp_path, mode="verify")

    def test_duplicated_record_breaks_contiguity(self, tmp_path):
        write_log(tmp_path, [b"alpha", b"beta"])
        (_, path), = wal.list_segments(tmp_path)
        data = path.read_bytes()
        # Re-append the first record's frame verbatim: valid CRC, stale seq.
        first_frame = wal.encode_record(1, b"alpha")
        path.write_bytes(data + first_frame)
        with pytest.raises(CorruptLogError, match="contiguity"):
            wal.scan_segments(tmp_path, mode="verify")
        scan = wal.scan_segments(tmp_path, mode="repair")
        assert [body for _, body in scan.records] == [b"alpha", b"beta"]

    def test_verify_raises_and_modifies_nothing(self, tmp_path):
        write_log(tmp_path, [b"a"])
        (_, path), = wal.list_segments(tmp_path)
        with open(path, "ab") as fh:
            fh.write(b"garbage")
        size = path.stat().st_size
        with pytest.raises(CorruptLogError):
            wal.scan_segments(tmp_path, mode="verify")
        assert path.stat().st_size == size

    @pytest.mark.parametrize(
        "at, match", [(0, "bad segment magic"), (len(wal.MAGIC), "unsupported WAL segment version")],
        ids=["magic", "version"],
    )
    def test_an_unreadable_header_is_refused_and_kept(self, tmp_path, at, match):
        """A complete header repair cannot read is not a torn tail: it
        raises, and neither that segment nor a later one is touched."""
        write_log(tmp_path, [bytes(64) for _ in range(10)], segment_bytes=256)
        segments = wal.list_segments(tmp_path)
        assert len(segments) >= 3
        _, victim = segments[1]
        data = bytearray(victim.read_bytes())
        data[at] ^= 0x01
        victim.write_bytes(bytes(data))
        before = {path: path.read_bytes() for _, path in segments}
        for mode in ("repair", "verify"):
            with pytest.raises(CorruptLogError, match=match):
                wal.scan_segments(tmp_path, mode=mode)
        assert {path: path.read_bytes() for _, path in wal.list_segments(tmp_path)} == before

    def test_a_short_last_segment_is_a_torn_tail(self, tmp_path):
        write_log(tmp_path, [b"a", b"b"])
        torn = tmp_path / wal.segment_name(3)
        torn.write_bytes(wal.encode_header(3)[:-2])  # a crash mid-rotation
        scan = wal.scan_segments(tmp_path, mode="repair")
        assert [body for _, body in scan.records] == [b"a", b"b"]
        assert scan.dropped_segments == 1 and not torn.exists()

    def test_a_short_segment_before_another_is_refused(self, tmp_path):
        write_log(tmp_path, [bytes(64) for _ in range(10)], segment_bytes=256)
        (_, victim), *_ = wal.list_segments(tmp_path)[1:]
        victim.write_bytes(victim.read_bytes()[: wal.HEADER_BYTES - 1])
        with pytest.raises(CorruptLogError, match="shorter than its header"):
            wal.scan_segments(tmp_path, mode="repair")
        assert victim.stat().st_size == wal.HEADER_BYTES - 1


class TestFsyncAndGc:
    def test_fsync_covers_rotated_segments(self, tmp_path):
        writer = wal.WalWriter(tmp_path, segment_bytes=128)
        for _ in range(10):
            writer.append(bytes(64))
        writer.fsync()  # must flush retired + active without error
        writer.close()
        assert wal.scan_segments(tmp_path, mode="verify").next_seq == 11

    def test_gc_keeps_active_and_uncovered_segments(self, tmp_path):
        writer = wal.WalWriter(tmp_path, segment_bytes=128)
        for _ in range(20):
            writer.append(bytes(64))
        before = wal.list_segments(tmp_path)
        assert len(before) > 2
        # Nothing covered: nothing removed.
        assert writer.gc(0) == 0
        # Cover everything: every non-active, fully-covered segment goes.
        removed = writer.gc(writer.last_seq)
        assert removed >= 1
        remaining = wal.list_segments(tmp_path)
        assert writer.active_path() in [p for _, p in remaining]
        writer.close()
        # The surviving suffix still verifies (contiguous from its base).
        scan = wal.scan_segments(tmp_path, mode="verify")
        assert scan.next_seq == 21

    def test_encode_record_crc_covers_seq(self):
        frame_a = wal.encode_record(1, b"x")
        frame_b = wal.encode_record(2, b"x")
        crc_a = struct.unpack(">I", frame_a[4:8])[0]
        crc_b = struct.unpack(">I", frame_b[4:8])[0]
        assert crc_a != crc_b  # same body, different seq -> different CRC
