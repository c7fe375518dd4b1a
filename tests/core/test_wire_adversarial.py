"""Adversarial wire-format tests.

Frames arrive at the SSI from the network; the length prefix, padding
and body are all attacker-controlled.  Every malformation must surface
as :class:`ProtocolError` — never ``IndexError``/``UnicodeDecodeError``/
``TypeError`` leaking out of the byte layer (see DESIGN.md §7).  That
holds for the inner tuple/partial frames a TDS decrypts and for the work
unit that carries them to it.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codec import encode
from repro.core.messages import EncryptedTuple, EncryptedTupleBlock, TupleContent
from repro.core.wire import (
    MAX_INNER_LENGTH,
    decode_frame,
    encode_partial_frame,
    encode_tuple_frame,
)
from repro.exceptions import ProtocolError
from repro.net import frames, ops
from repro.net.frames import MAX_ITEMS, Reader, WorkUnit, Writer


def good_tuple_frame() -> bytes:
    content = TupleContent(TupleContent.KIND_DATA, {"g": "north", "x": 42})
    return encode_tuple_frame(content)


class TestLengthPrefix:
    def test_empty_input(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"")

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_truncated_prefix(self, size):
        with pytest.raises(ProtocolError):
            decode_frame(b"\xff" * size)

    def test_declared_length_past_buffer(self):
        frame = bytearray(good_tuple_frame())
        frame[:4] = (len(frame) + 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError):
            decode_frame(bytes(frame))

    def test_declared_length_maximum_u32(self):
        # 0xFFFFFFFF would be a 4 GiB allocation if trusted.
        frame = b"\xff\xff\xff\xff" + b"\x00" * 64
        with pytest.raises(ProtocolError, match="limit"):
            decode_frame(frame)

    def test_declared_length_just_above_cap(self):
        frame = (MAX_INNER_LENGTH + 1).to_bytes(4, "big") + b"\x00" * 64
        with pytest.raises(ProtocolError, match="limit"):
            decode_frame(frame)

    def test_nonzero_padding_rejected(self):
        # Padding bytes are a covert channel if they may carry data.
        frame = bytearray(good_tuple_frame())
        assert frame[-1] == 0
        frame[-1] = 1
        with pytest.raises(ProtocolError, match="padding"):
            decode_frame(bytes(frame))


def _pad_raw(data: bytes) -> bytes:
    framed = len(data).to_bytes(4, "big") + data
    if len(framed) % 64:
        framed += bytes(64 - len(framed) % 64)
    return framed


class TestBody:
    def test_garbage_body(self):
        with pytest.raises(ProtocolError):
            decode_frame(_pad_raw(b"\x9e\x01\x02garbage"))

    def test_non_utf8_text(self):
        # A codec 'text' header pointing at invalid UTF-8 bytes.
        with pytest.raises(ProtocolError):
            decode_frame(_pad_raw(b"s\x00\x00\x00\x02\xff\xfe"))

    def test_body_not_a_pair(self):
        with pytest.raises(ProtocolError, match="pair"):
            decode_frame(_pad_raw(encode(["t"])))

    def test_body_wrong_container(self):
        with pytest.raises(ProtocolError):
            decode_frame(_pad_raw(encode(42)))

    def test_unknown_frame_kind(self):
        with pytest.raises(ProtocolError, match="unknown frame kind"):
            decode_frame(_pad_raw(encode(["z", {}])))

    def test_tuple_frame_with_malformed_content(self):
        with pytest.raises(ProtocolError, match="tuple frame"):
            decode_frame(_pad_raw(encode(["t", ["not", "a", "mapping"]])))

    def test_tuple_frame_with_missing_keys(self):
        with pytest.raises(ProtocolError, match="tuple frame"):
            decode_frame(_pad_raw(encode(["t", {"unexpected": 1}])))


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=512))
    def test_random_bytes_never_leak_raw_errors(self, data):
        try:
            decode_frame(data)
        except ProtocolError:
            pass  # the only allowed failure mode

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=256), st.integers(min_value=0, max_value=255))
    def test_bit_flipped_good_frames(self, noise, position):
        frame = bytearray(good_tuple_frame())
        for i, byte in enumerate(noise):
            frame[(position + i) % len(frame)] ^= byte
        try:
            kind, __ = decode_frame(bytes(frame))
            assert kind in ("tuple", "partial")
        except ProtocolError:
            pass

    def test_partial_roundtrip_still_works(self):
        # The hardening must not reject well-formed frames.
        kind, body = decode_frame(encode_partial_frame([["g"], {"n": 3}]))
        assert kind == "partial"
        assert body == [["g"], {"n": 3}]


def _unit_head() -> Writer:
    return Writer().text("q1").u8(frames.WORK_FOLD).i64(7)


def _unit(count: int, lengths: bytes, payloads: bytes) -> bytes:
    """A unit's block as the block codec lays it out: *count* untagged
    items, no tag bytes."""
    untagged = b"\xff\xff\xff\xff" * count
    return (
        _unit_head().u32(count).blob(lengths).blob(untagged).blob(payloads).blob(b"")
    ).getvalue()


def _good_unit() -> bytes:
    block = EncryptedTupleBlock.from_tuples(
        [EncryptedTuple(b"ct-one"), EncryptedTuple(b""), EncryptedTuple(b"ct-three")]
    )
    w = Writer()
    frames.write_work_unit(w, WorkUnit("q1", frames.WORK_FOLD, 7, block))
    return w.getvalue()


def _read_answer(data: bytes):
    """Decode an ``await_work`` answer the way a device does."""
    r = Reader(data)
    answer = ops.AWAIT_WORK.response.read(r)
    r.expect_end()
    return answer


#: malformed work units -> what the ProtocolError refusing each names
_BAD_UNITS = {
    "truncated lengths vector": (
        _unit(3, struct.pack(">2I", 1, 1), b"abc"), "lengths vector"
    ),
    "lengths vector longer than the count": (
        _unit(1, struct.pack(">2I", 1, 1), b"ab"), "lengths vector"
    ),
    "lengths vector cut by the end of the frame": (
        _unit_head().u32(2).u32(8).getvalue() + b"\x00\x00\x00", "truncated"
    ),
    "lengths summing past the buffer": (
        _unit(2, struct.pack(">2I", 4, 8), b"onlyfour"), "payload buffer"
    ),
    "lengths summing short of the buffer": (
        _unit(2, struct.pack(">2I", 2, 2), b"onlyfour"), "payload buffer"
    ),
    "a u32-maximum length": (
        _unit(1, struct.pack(">I", 0xFFFFFFFF), b"tiny"), "payload buffer"
    ),
    "count above MAX_ITEMS": (_unit_head().u32(MAX_ITEMS + 1).getvalue(), "limit"),
    "payload buffer missing": (
        _unit_head().u32(1).blob(struct.pack(">I", 0)).getvalue(), "truncated"
    ),
}


class TestWorkUnitCodec:
    def test_good_unit_reads(self):
        unit = frames.read_work_unit(Reader(_good_unit()))
        assert [bytes(s) for s in unit.block.segments()] == [b"ct-one", b"", b"ct-three"]

    @pytest.mark.parametrize("name", sorted(_BAD_UNITS))
    def test_malformed_unit_refused(self, name):
        data, names = _BAD_UNITS[name]
        with pytest.raises(ProtocolError, match=names):
            frames.read_work_unit(Reader(data))

    def test_oversized_unit_refused_at_write_time(self):
        block = EncryptedTupleBlock(b"", (0,) * (MAX_ITEMS + 2), (None,) * (MAX_ITEMS + 1))
        with pytest.raises(ProtocolError, match="limit"):
            frames.write_work_unit(Writer(), WorkUnit("q1", frames.WORK_FOLD, 0, block))

    def test_trailing_bytes_after_the_unit(self):
        w = Writer()
        ops.AWAIT_WORK.response.write(
            w, ([], frames.read_work_unit(Reader(_good_unit())), [])
        )
        assert _read_answer(w.getvalue())[1] is not None
        with pytest.raises(ProtocolError, match="trailing"):
            _read_answer(w.getvalue() + b"\x00")

    def test_every_truncation_refused(self):
        good = _good_unit()
        for cut in range(len(good)):
            with pytest.raises(ProtocolError):
                frames.read_work_unit(Reader(good[:cut]))

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=128), st.integers(min_value=0, max_value=255))
    def test_bit_flipped_units_only_raise_protocol_error(self, noise, position):
        unit = bytearray(_good_unit())
        for i, byte in enumerate(noise):
            unit[(position + i) % len(unit)] ^= byte
        try:
            got = frames.read_work_unit(Reader(bytes(unit)))
        except ProtocolError:
            return
        assert got.block.offsets[-1] == len(got.block.payloads)

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=256))
    def test_random_bytes_only_raise_protocol_error(self, data):
        try:
            frames.read_work_unit(Reader(data))
        except ProtocolError:
            pass
