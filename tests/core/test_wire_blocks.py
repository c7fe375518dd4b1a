"""The block forms of the tuple-frame codec against the generic codec.

``encode_tuple_frames`` / ``decode_frames`` take a shortcut through the
format for a block whose rows share a key set and value layout: one
fixed-stride array, written and read column by column.  The generic
codec is the definition of the format and the reference here: the
shortcut must write the same bytes, read the same values and reject the
same inputs, with the same error.

The work unit that carries a partition to a TDS is a block too: a
count, one lengths vector and one payload buffer.  It must give back
exactly the payloads it was given, whatever their number and sizes.
"""

from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import wire
from repro.core.codec import encode
from repro.core.messages import EncryptedTuple, EncryptedTupleBlock, TupleContent
from repro.core.wire import (
    MAX_INNER_LENGTH,
    TUPLE_FRAME_QUANTUM,
    decode_frame,
    decode_frames,
    encode_partial_frame,
    encode_tuple_frame,
    encode_tuple_frames,
)
from repro.exceptions import ProtocolError
from repro.net import frames, ops
from repro.net.frames import Reader, WorkUnit, Writer

KINDS = (TupleContent.KIND_DATA, TupleContent.KIND_DUMMY, TupleContent.KIND_FAKE)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.binary(max_size=12),
)
values = st.one_of(scalars, st.lists(scalars, max_size=3))
keys = st.text(max_size=6)


@st.composite
def blocks(draw):
    """Contents that mostly share a few key sets, in permuted key order,
    with the occasional odd row — what a partition looks like, plus what
    it must survive."""
    shapes = draw(st.lists(st.lists(keys, max_size=5, unique=True), min_size=1, max_size=3))
    contents = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        shape = draw(st.permutations(draw(st.sampled_from(shapes))))
        row = {key: draw(values) for key in shape}
        contents.append(TupleContent(draw(st.sampled_from(KINDS)), row))
    return contents


def reference_frame(content: TupleContent, quantum: int = TUPLE_FRAME_QUANTUM) -> bytes:
    """The frame as the generic codec defines it."""
    return wire._pad(encode(["t", content.to_portable()]), quantum)


def packed(frames: list[bytes]) -> tuple[bytes, tuple[int, ...]]:
    """Frames as one buffer plus its offsets table."""
    return b"".join(frames), tuple(accumulate(map(len, frames), initial=0))


def decode_block(frames: list[bytes]):
    return decode_frames(*packed(frames))


#: enough frames of one stride for the column reader
COLUMN = wire._COLUMN_FRAMES


def outcome(decode, *args):
    """What a decode did: its value, or the ProtocolError it raised.
    Anything else propagates and fails the test."""
    try:
        return "value", decode(*args)
    except ProtocolError as exc:
        return "error", str(exc)


class TestEncode:
    @settings(max_examples=300, deadline=None)
    @given(blocks(), st.sampled_from([64, TUPLE_FRAME_QUANTUM]))
    def test_bytes_are_the_generic_codecs(self, contents, quantum):
        assert encode_tuple_frames(contents, quantum) == packed(
            [reference_frame(content, quantum) for content in contents]
        )

    @pytest.mark.parametrize("count", [1, 2, COLUMN])
    def test_keys_other_than_str_take_the_generic_codec(self, count):
        contents = [TupleContent(TupleContent.KIND_DATA, {1: "a", "b": 2.5, None: 3})] * count
        frames = [reference_frame(content) for content in contents]
        assert encode_tuple_frames(contents) == packed(frames)
        assert decode_block(frames) == [decode_frame(frame) for frame in frames]

    def test_one_frame_is_the_one_element_block(self):
        content = TupleContent(TupleContent.KIND_DATA, {"g": "nørth", "x": 1.5})
        assert encode_tuple_frame(content) == reference_frame(content)

    def test_row_and_kind_order_is_the_sorted_one(self):
        # the head/tail split of the template relies on this order
        assert encode("row") < encode("kind")

    def test_dummy_and_data_still_share_a_size_class(self):
        __, offsets = encode_tuple_frames(
            [
                TupleContent(TupleContent.KIND_DUMMY),
                TupleContent(TupleContent.KIND_DATA, {"district": "north", "cons": 512.5}),
            ]
        )
        assert offsets == (0, TUPLE_FRAME_QUANTUM, 2 * TUPLE_FRAME_QUANTUM)


class TestDecode:
    @settings(max_examples=300, deadline=None)
    @given(blocks(), st.data())
    def test_values_are_the_generic_codecs(self, contents, data):
        frames = [reference_frame(content) for content in contents]
        # a partial frame among tuple frames, as in a later S_Agg round
        at = data.draw(st.integers(min_value=0, max_value=len(frames)))
        frames.insert(at, encode_partial_frame([[["g"], [{"kind": "count", "count": 3}]]]))
        decoded = decode_block(frames)
        assert decoded == [decode_frame(frame) for frame in frames]
        for (kind, body), frame in zip(decoded, frames):
            if kind == "tuple":  # dict equality ignores order; the wire does not
                assert list(body.row) == list(decode_frame(frame)[1].row)

    def test_non_canonical_key_order_is_still_read(self):
        # a peer that wrote "kind" before "row": valid codec, not canonical
        good = reference_frame(TupleContent("data", {"g": "a"}))
        inner = b"".join(
            [
                encode(["t", {}])[:-5],  # up to the outer dict
                b"\x08\x00\x00\x00\x02",
                encode("kind"), encode("data"),
                encode("row"), encode({"g": "b"}),
            ]
        )
        odd = wire._pad(inner, TUPLE_FRAME_QUANTUM)
        assert decode_frame(odd) == ("tuple", TupleContent("data", {"g": "b"}))
        assert decode_block([good, odd])[1] == decode_frame(odd)
        assert decode_block([good] * COLUMN + [odd])[-1] == decode_frame(odd)


def _inner(frame: bytes) -> bytes:
    return frame[4 : 4 + int.from_bytes(frame[:4], "big")]


def _corpus() -> dict[str, bytes]:
    """The malformations of test_wire_adversarial.py, shaped so that each
    would reach the column reader (a block of tuple frames precedes it)."""
    good = reference_frame(TupleContent(TupleContent.KIND_DATA, {"g": "north", "x": 42}))
    inner = _inner(good)
    over_long = bytearray(good)
    over_long[:4] = (len(good) + 1).to_bytes(4, "big")
    nonzero_padding = bytearray(good)
    nonzero_padding[-1] = 1
    wrong_tag = bytearray(good)
    wrong_tag[4 + inner.index(b"north") - 5] = 0x9E  # the value's type tag
    bad_utf8 = good.replace(b"north", b"nor\xff\xfe")
    return {
        "empty": b"",
        "truncated prefix": b"\xff\xff",
        "over-long length": bytes(over_long),
        "length above the cap": (MAX_INNER_LENGTH + 1).to_bytes(4, "big") + bytes(60),
        "maximum length": b"\xff" * 4 + bytes(60),
        "non-zero padding": bytes(nonzero_padding),
        "wrong tag": bytes(wrong_tag),
        "trailing bytes": wire._pad(inner + b"\x00", TUPLE_FRAME_QUANTUM),
        "bad utf-8": bad_utf8,
        "truncated body": wire._pad(inner[:-3], TUPLE_FRAME_QUANTUM),
        "string running into the padding": good.replace(
            b"\x00\x00\x00\x05north", b"\x00\x00\x00\x7fnorth"
        ),
        "not a pair": wire._pad(encode(["t"]), 64),
        "unknown kind": wire._pad(encode(["z", {}]), 64),
        "row is not a mapping": wire._pad(encode(["t", ["not", "a", "mapping"]]), 64),
        "missing keys": wire._pad(encode(["t", {"unexpected": 1}]), 64),
    }


class TestAdversarial:
    @pytest.mark.parametrize("name", sorted(_corpus()))
    def test_rejected_like_the_generic_decoder(self, name):
        good = reference_frame(TupleContent(TupleContent.KIND_DATA, {"g": "south", "x": 7}))
        bad = _corpus()[name]
        alone = outcome(decode_frame, bad)
        assert alone[0] == "error", name
        assert outcome(decode_block, [good, bad]) == alone
        assert outcome(decode_block, [good, good, bad, good]) == alone
        assert outcome(decode_block, [good] * COLUMN + [bad, good]) == alone

    @settings(max_examples=500, deadline=None)
    @given(st.binary(max_size=64), st.integers(min_value=0, max_value=255))
    def test_bit_flipped_frames_fare_alike(self, noise, position):
        good = reference_frame(TupleContent(TupleContent.KIND_DATA, {"g": "north", "x": 42}))
        frame = bytearray(good)
        for i, byte in enumerate(noise):
            frame[(position + i) % len(frame)] ^= byte
        alone = outcome(decode_frame, bytes(frame))
        # after one good frame the frame-by-frame reader judges it, after
        # _COLUMN_FRAMES of them the column reader
        for count in (1, COLUMN):
            after_good_ones = outcome(decode_block, [good] * count + [bytes(frame)])
            if alone[0] == "error":
                assert after_good_ones == alone
            else:
                assert after_good_ones == ("value", [decode_frame(good)] * count + [alone[1]])


class TestWorkUnitRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.binary(max_size=300), max_size=70),
        st.sampled_from(
            [frames.WORK_FOLD, frames.WORK_FOLD_PER_GROUP, frames.WORK_FINALIZE, frames.WORK_FILTER]
        ),
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        st.text(max_size=8),
    )
    @example([], frames.WORK_FOLD, 0, "q")
    @example([b"one"], frames.WORK_FOLD, 1, "q")
    @example([b"", b"x" * 284, b"", b"mid-size"], frames.WORK_FINALIZE, 2, "q")
    def test_payloads_come_back_exactly(self, payloads, kind, partition_id, query_id):
        block = EncryptedTupleBlock.from_tuples([EncryptedTuple(p) for p in payloads])
        unit = WorkUnit(query_id, kind, partition_id, block)
        w = Writer()
        # inside the answer a waiting device reads, as the wire carries it
        ops.AWAIT_WORK.response.write(w, ([], unit, []))
        r = Reader(w.getvalue())
        queries, got, done = ops.AWAIT_WORK.response.read(r)
        r.expect_end()
        assert (queries, done) == ([], [])
        assert got == unit
        assert [bytes(segment) for segment in got.block.segments()] == payloads
