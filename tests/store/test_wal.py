"""WAL framing, rotation, torn-tail repair and segment GC."""

import hashlib
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.exceptions import CorruptLogError, StoreError
from repro.store import DurableStore, verify_data_dir, wal
from repro.store.recovery import WAL_SUBDIR


SRC = str(Path(__file__).resolve().parents[2] / "src")


def serve_refusal(data_dir):
    """Run ``repro serve --data-dir`` on a dir it must refuse; returns
    its one stderr line after checking it exited 1 without listening."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--data-dir", str(data_dir)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 1
    assert "listening" not in proc.stdout
    (line,) = proc.stderr.splitlines()
    assert line.startswith("serve FAILED: ")
    return line


def file_hashes(directory):
    return {
        path: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in directory.rglob("*")
        if path.is_file()
    }


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

    def test_a_flip_in_an_older_segment_is_refused_untouched(self, tmp_path):
        """Only the last segment can hold a torn tail: one flipped byte in
        segment 2 of many is refused by both scan modes, by ``open``, by
        ``verify_data_dir`` and by ``repro verify-log`` and ``serve``,
        each naming the segment, and no file is cut, dropped or
        rewritten."""
        wal_dir = tmp_path / WAL_SUBDIR
        write_log(wal_dir, [bytes(64) for _ in range(50)], segment_bytes=256)
        segments = wal.list_segments(wal_dir)
        assert len(segments) >= 3
        _, victim = segments[1]
        data = bytearray(victim.read_bytes())
        data[wal.HEADER_BYTES + 20] ^= 0xFF  # first record's body
        victim.write_bytes(bytes(data))
        before = file_hashes(tmp_path)
        match = f"{victim.name}: CRC mismatch"
        for mode in ("repair", "verify"):
            with pytest.raises(CorruptLogError, match=match):
                wal.scan_segments(wal_dir, mode=mode)
        with pytest.raises(CorruptLogError, match=match):
            DurableStore.open(tmp_path)
        with pytest.raises(CorruptLogError, match=match):
            verify_data_dir(tmp_path)
        assert cli.main(["verify-log", "--data-dir", str(tmp_path)]) == 1
        assert f"{victim.name}: CRC mismatch" in serve_refusal(tmp_path)
        assert file_hashes(tmp_path) == before

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

    def test_a_first_segment_whose_base_is_not_its_name_is_refused(self, tmp_path):
        """A flipped base sequence in the first (here the only) segment
        is a complete header no crash writes, not a contiguity break at
        its first record to cut there: its file name gives the base."""
        write_log(tmp_path, [b"a", b"b"])
        (_, path), = wal.list_segments(tmp_path)
        data = bytearray(path.read_bytes())
        data[wal.HEADER_BYTES - 1] ^= 0x01  # base seq 1 -> 0
        path.write_bytes(bytes(data))
        for mode in ("repair", "verify"):
            with pytest.raises(CorruptLogError, match="base seq 0, expected 1"):
                wal.scan_segments(tmp_path, mode=mode)
        assert path.read_bytes() == bytes(data)

    @pytest.mark.parametrize("index", [1, -1], ids=["middle", "last"])
    def test_a_segment_named_for_another_seq_is_refused(self, tmp_path, index):
        """GC unlinks segments by the base in their names, so a later
        segment's name is checked against where the one before it ended,
        the last segment's too: no crash renames a file."""
        write_log(tmp_path, [bytes(64) for _ in range(10)], segment_bytes=256)
        segments = wal.list_segments(tmp_path)
        assert len(segments) >= 3
        base, victim = segments[index]
        renamed = victim.with_name(wal.segment_name(base + 1))
        victim.rename(renamed)
        before = file_hashes(tmp_path)
        match = f"{renamed.name}: segment named for seq {base + 1}, expected {base}"
        for mode in ("repair", "verify"):
            with pytest.raises(CorruptLogError, match=match):
                wal.scan_segments(tmp_path, mode=mode)
        assert file_hashes(tmp_path) == before

    def test_a_short_last_segment_is_a_torn_tail(self, tmp_path):
        write_log(tmp_path, [b"a", b"b"])
        torn = tmp_path / wal.segment_name(3)
        torn.write_bytes(wal.encode_header(3)[:-2])  # a crash mid-rotation
        scan = wal.scan_segments(tmp_path, mode="repair")
        assert [body for _, body in scan.records] == [b"a", b"b"]
        assert scan.repaired and not torn.exists()

    @pytest.mark.parametrize("size", [0, wal.HEADER_BYTES - 1])
    def test_removing_a_short_segment_is_no_clean_start(self, tmp_path, size):
        """A crash right after the first segment was created leaves no
        record, yet the start that removes the file is not clean — an
        empty file included, which cuts no byte."""
        torn = tmp_path / WAL_SUBDIR / wal.segment_name(1)
        torn.parent.mkdir()
        torn.write_bytes(wal.encode_header(1)[:size])
        store = DurableStore.open(tmp_path)
        assert not store.recovered.clean and not torn.exists()
        store.close()

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

    @staticmethod
    def record_fsyncs(monkeypatch, directory):
        """Wrap ``os.fsync`` to log (inode synced, segment names that
        existed at that moment) for every call."""
        real = os.fsync
        calls = []

        def fsync(fd):
            names = {path.name for _, path in wal.list_segments(directory)}
            calls.append((os.fstat(fd).st_ino, names))
            real(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        return calls

    def test_rotation_syncs_the_retired_segment_first(self, tmp_path, monkeypatch):
        """The repair rule trusts every segment before the last: rotation
        fsyncs the segment it retires before the next one exists, with
        no ``fsync()`` call between the appends."""
        calls = self.record_fsyncs(monkeypatch, tmp_path)
        writer = wal.WalWriter(tmp_path, segment_bytes=128)
        for _ in range(5):  # two 64-byte records fill a 128-byte segment
            writer.append(bytes(64))
        segments = [path for _, path in wal.list_segments(tmp_path)]
        assert len(segments) == 3
        assert calls == [
            (segments[0].stat().st_ino, {segments[0].name}),
            (segments[1].stat().st_ino, {segments[0].name, segments[1].name}),
        ]
        writer.close()

    def test_a_restarted_writer_syncs_the_last_segment_first(self, tmp_path, monkeypatch):
        """After a restart the last segment may hold bytes a killed
        process never synced, or a repair's cut: the first append syncs
        it before it opens the next segment."""
        write_log(tmp_path, [b"a", b"b"])
        (_, last), = wal.list_segments(tmp_path)
        calls = self.record_fsyncs(monkeypatch, tmp_path)
        writer = wal.WalWriter(tmp_path, next_seq=3)
        writer.append(b"c")
        assert calls == [(last.stat().st_ino, {last.name})]
        writer.close()
        assert wal.scan_segments(tmp_path, mode="verify").next_seq == 4

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
