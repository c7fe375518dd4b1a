"""Frame codec tests: round-trips and malformed-input behavior."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import (
    Credential,
    EncryptedPartial,
    EncryptedTuple,
    EncryptedTupleBlock,
    QueryEnvelope,
    QueryResult,
)
from repro.exceptions import FrameTooLargeError, ProtocolError
from repro.net import frames
from repro.net.frames import QueryMeta, Reader, WorkUnit, Writer


def make_envelope(query_id="q1", size_tuples=None, size_seconds=None):
    return QueryEnvelope(
        query_id=query_id,
        encrypted_query=b"\x01\x02ciphertext",
        credential=Credential("alice", frozenset({"public", "admin"}), b"sig"),
        size_tuples=size_tuples,
        size_seconds=size_seconds,
    )


class TestPrimitives:
    def test_scalar_roundtrip(self):
        w = Writer().u8(7).u32(1 << 30).i64(-5).f64(2.5).boolean(True)
        w.blob(b"abc").text("héllo").opt_blob(None).opt_text("x")
        r = Reader(w.getvalue())
        assert r.u8() == 7
        assert r.u32() == 1 << 30
        assert r.i64() == -5
        assert r.f64() == 2.5
        assert r.boolean() is True
        assert r.blob() == b"abc"
        assert r.text() == "héllo"
        assert r.opt_blob() is None
        assert r.opt_text() == "x"
        r.expect_end()

    def test_truncated_reads_raise_protocol_error(self):
        r = Reader(b"\x01")
        r.u8()
        with pytest.raises(ProtocolError, match="truncated"):
            r.u32()

    def test_blob_declaring_more_than_available(self):
        r = Reader(b"\x00\x00\x00\xff" + b"x" * 8)
        with pytest.raises(ProtocolError, match="truncated"):
            r.blob()

    def test_invalid_boolean_byte(self):
        with pytest.raises(ProtocolError, match="boolean"):
            Reader(b"\x02").boolean()

    def test_invalid_utf8_text(self):
        payload = Writer().blob(b"\xff\xfe").getvalue()
        with pytest.raises(ProtocolError, match="UTF-8"):
            Reader(payload).text()

    def test_count_limit(self):
        payload = Writer().u32(10_000).getvalue()
        with pytest.raises(ProtocolError, match="exceeds the limit"):
            Reader(payload).count(limit=100)

    def test_trailing_bytes_detected(self):
        r = Reader(b"\x01\x02")
        r.u8()
        with pytest.raises(ProtocolError, match="trailing"):
            r.expect_end()


class TestFrameLayer:
    def test_frame_roundtrip(self):
        frame = frames.pack_frame(frames.MSG_PING, b"\x00\x00\x00\x07payload")
        msg_type, corr, _exts, reader = frames.unpack_frame_ext(frame[4:])
        assert msg_type == frames.MSG_PING
        assert corr == 0
        assert reader.blob() == b"payload"
        assert frame[4] == frames.PROTOCOL_VERSION

    def test_correlation_id_roundtrip(self):
        frame = frames.pack_frame(frames.MSG_PING, b"", correlation_id=0xDEADBEEF)
        msg_type, corr, _exts, reader = frames.unpack_frame_ext(frame[4:])
        assert msg_type == frames.MSG_PING
        assert corr == 0xDEADBEEF
        reader.expect_end()
        assert frames.peek_correlation_id(frame[4:]) == 0xDEADBEEF

    def test_peek_correlation_id_of_runt_body_is_connection_scoped(self):
        assert frames.peek_correlation_id(b"\x03\x12") == 0

    def test_correlation_id_out_of_range_rejected(self):
        with pytest.raises(ProtocolError, match="correlation id"):
            frames.pack_frame(frames.MSG_PING, b"", correlation_id=1 << 32)
        with pytest.raises(ProtocolError, match="correlation id"):
            frames.pack_frame(frames.MSG_PING, b"", correlation_id=-1)

    def test_version_mismatch_rejected(self):
        frame = bytearray(frames.pack_frame(frames.MSG_PING, b""))
        frame[4] = 99
        with pytest.raises(ProtocolError, match="version"):
            frames.unpack_frame_ext(bytes(frame[4:]))

    def test_runt_body_rejected(self):
        with pytest.raises(ProtocolError, match="shorter"):
            frames.unpack_frame_ext(b"\x01")

    def test_oversized_frame_refused_at_pack_time(self):
        with pytest.raises(ProtocolError, match="MAX_FRAME_BYTES"):
            frames.pack_frame(frames.MSG_PING, b"x" * frames.MAX_FRAME_BYTES)

    def test_read_frame_rejects_oversized_declaration(self):
        """The prefix is judged on its own four bytes: nothing of a
        4 GiB body is waited for, let alone buffered."""
        cutter = frames.FrameCutter()
        cutter.feed(b"\xff\xff\xff\xff")
        with pytest.raises(FrameTooLargeError, match="limit"):
            cutter.cut()
        small = frames.FrameCutter(max_bytes=16)
        small.feed((17).to_bytes(4, "big"))
        with pytest.raises(FrameTooLargeError, match="17-byte frame"):
            small.cut()

    def test_read_frame_eof_mid_frame(self):
        """A frame the peer never finished is never handed out: it stays
        in the buffer, whatever came before it."""
        whole = frames.pack_frame(frames.MSG_PING, b"", correlation_id=1)
        cutter = frames.FrameCutter()
        cutter.feed(whole + b"\x00\x00\x00\x08\x01\x02")
        assert cutter.cut() == whole[4:]
        assert cutter.cut() is None
        assert cutter.cut() is None  # asking again changes nothing
        cutter.feed(b"\x03\x04\x05\x06\x07\x08")
        assert cutter.cut() == bytes(range(1, 9))
        assert cutter.cut() is None


def cut_all(cutter):
    bodies = []
    while (body := cutter.cut()) is not None:
        bodies.append(body)
    return bodies


class TestFrameCutter:
    """The one place both ends of the wire get their frames from."""

    FRAMES = [
        frames.pack_frame(frames.MSG_PING, b"", correlation_id=7),
        frames.pack_frame(frames.MSG_OK, b"x" * 300, correlation_id=8),
        frames.pack_frame(
            frames.MSG_OK, b"", correlation_id=9,
            extensions=[(frames.EXT_TRACE, b"t" * 24)],
        ),
    ]
    BODIES = [frame[4:] for frame in FRAMES]

    def test_many_frames_in_one_chunk(self):
        cutter = frames.FrameCutter()
        cutter.feed(b"".join(self.FRAMES))
        got = cut_all(cutter)
        assert got == self.BODIES
        assert all(type(body) is bytes for body in got)  # not views of the buffer

    def test_byte_at_a_time(self):
        cutter = frames.FrameCutter()
        got = []
        for byte in b"".join(self.FRAMES):
            cutter.feed(bytes([byte]))
            got += cut_all(cutter)
        assert got == self.BODIES

    @given(st.lists(st.integers(min_value=1, max_value=400), max_size=12))
    def test_any_chunking_yields_the_same_frames(self, sizes):
        stream = b"".join(self.FRAMES)
        cutter = frames.FrameCutter()
        got, pos = [], 0
        for size in sizes + [len(stream)]:
            cutter.feed(stream[pos : pos + size])
            pos += size
            got += cut_all(cutter)
        assert got == self.BODIES

    def test_runt_prefix_is_malformed_not_too_large(self):
        cutter = frames.FrameCutter()
        cutter.feed(b"\x00\x00\x00\x05\x04\x12\x00\x00\x00")
        with pytest.raises(ProtocolError, match="too short") as info:
            cutter.cut()
        assert not isinstance(info.value, FrameTooLargeError)

    def test_a_frame_at_the_limit_passes_and_one_byte_more_does_not(self):
        frame = frames.pack_frame(frames.MSG_OK, b"p" * 20)
        cutter = frames.FrameCutter(max_bytes=len(frame) - 4)
        cutter.feed(frame)
        assert cutter.cut() == frame[4:]
        cutter = frames.FrameCutter(max_bytes=len(frame) - 5)
        cutter.feed(frame[:4])
        with pytest.raises(FrameTooLargeError):
            cutter.cut()

    def test_frames_before_a_bad_prefix_are_still_handed_out(self):
        cutter = frames.FrameCutter()
        cutter.feed(self.FRAMES[0] + b"\xff\xff\xff\xff")
        assert cutter.cut() == self.BODIES[0]
        with pytest.raises(FrameTooLargeError):
            cutter.cut()


class TestComposites:
    @pytest.mark.parametrize(
        "envelope",
        [
            make_envelope(),
            make_envelope(size_tuples=100),
            make_envelope(size_seconds=3.5),
            make_envelope(size_tuples=7, size_seconds=0.25),
        ],
    )
    def test_envelope_roundtrip(self, envelope):
        w = Writer()
        frames.write_envelope(w, envelope)
        got = frames.read_envelope(Reader(w.getvalue()))
        assert got == envelope

    def test_meta_roundtrip_and_dict_params(self):
        meta = QueryMeta("s_agg", {"alpha": 3.6, "partition_timeout": 2.0})
        w = Writer()
        frames.write_meta(w, meta)
        got = frames.read_meta(Reader(w.getvalue()))
        assert got.protocol == "s_agg"
        assert got.param("alpha", 0.0) == 3.6
        assert got.param("missing", 1.25) == 1.25

    def test_items_roundtrip_preserves_kind(self):
        items = [
            EncryptedTuple(b"ct1", None),
            EncryptedTuple(b"ct2", b"tag"),
            EncryptedPartial(b"cp", b"tag2"),
        ]
        w = Writer()
        frames.write_items(w, items)
        got = frames.read_items(Reader(w.getvalue()))
        assert got == items
        assert [type(i) for i in got] == [type(i) for i in items]

    def test_read_tuples_rejects_partials(self):
        w = Writer()
        frames.write_items(w, [EncryptedPartial(b"cp", None)])
        with pytest.raises(ProtocolError, match="expected tuple"):
            frames.read_tuples(Reader(w.getvalue()))

    def test_read_partials_rejects_tuples(self):
        w = Writer()
        frames.write_items(w, [EncryptedTuple(b"ct", None)])
        with pytest.raises(ProtocolError, match="expected partial"):
            frames.read_partials(Reader(w.getvalue()))

    def test_unknown_item_kind(self):
        payload = Writer().u32(1).u8(9).blob(b"x").boolean(False).getvalue()
        with pytest.raises(ProtocolError, match="item kind"):
            frames.read_items(Reader(payload))

    def test_work_unit_roundtrip(self):
        block = EncryptedTupleBlock.from_tuples([EncryptedPartial(b"c", None)])
        unit = WorkUnit("q9", frames.WORK_FOLD, 3, block)
        w = Writer()
        frames.write_work_unit(w, unit)
        assert frames.read_work_unit(Reader(w.getvalue())) == unit

    def test_work_unit_unknown_kind(self):
        w = Writer()
        w.text("q9")
        w.u8(0x7F)
        w.i64(0)
        w.u32(0).blob(b"").blob(b"")
        with pytest.raises(ProtocolError, match="work-unit kind"):
            frames.read_work_unit(Reader(w.getvalue()))

    def test_result_roundtrip(self):
        result = QueryResult("q1", (b"row1", b"row2"))
        w = Writer()
        frames.write_result(w, result)
        assert frames.read_result(Reader(w.getvalue())) == result


class TestFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=256))
    def test_random_payloads_only_raise_protocol_error(self, data):
        for parse in (
            frames.read_envelope,
            frames.read_meta,
            frames.read_items,
            frames.read_work_unit,
            frames.read_result,
        ):
            try:
                parse(Reader(data))
            except ProtocolError:
                pass

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=64))
    def test_unpack_frame_body_total(self, body):
        try:
            frames.unpack_frame_ext(body)
        except ProtocolError:
            pass
