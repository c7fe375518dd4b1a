"""The one block codec reads in C-level passes, and nothing else changed.

The reference below is a Python-step-per-tag copy of the payload
``Reader`` and of ``read_tuple_block``, in both of its variants: the
tagged field (contributions, partials) and the untagged one (result
rows, work units, results), which refuses a block with any tag.  For
any valid encoding — no items or up to 64, tags all ``None``, all
``b""``, all of one length, of several lengths, or mixed lengths with
``None`` among them —
both sides must return the same block (``None`` and ``b""`` stay
apart).  For every truncation and every single-byte flip of those
encodings both sides must raise a :class:`ProtocolError` with the same
message or return the same value; neither may leak an ``IndexError``,
``struct.error``, ``ValueError`` or ``MemoryError``.
"""

import itertools
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.messages import EncryptedTupleBlock, offsets_ascend
from repro.exceptions import ProtocolError
from repro.net import frames, ops
from repro.net.frames import MAX_FIELD_BYTES, MAX_ITEMS, Reader, Writer


# --------------------------------------------------------------------- #
# the reference: a Python step per tag, a fresh bytes per scalar
# --------------------------------------------------------------------- #
class ReferenceReader:
    def __init__(self, data):
        self._data = data
        self._pos = 0

    def _take(self, n):
        if n < 0 or self._pos + n > len(self._data):
            raise ProtocolError("truncated message payload")
        chunk = self._data[self._pos : self._pos + n]
        self._pos += n
        return chunk

    def mark(self):
        return self._pos

    def u8(self):
        return self._take(1)[0]

    def u32(self):
        (value,) = struct.unpack(">I", self._take(4))
        return int(value)

    def i64(self):
        (value,) = struct.unpack(">q", self._take(8))
        return int(value)

    def f64(self):
        (value,) = struct.unpack(">d", self._take(8))
        return float(value)

    def boolean(self):
        flag = self.u8()
        if flag not in (0, 1):
            raise ProtocolError(f"invalid boolean byte 0x{flag:02x}")
        return flag == 1

    def blob(self):
        length = self.u32()
        if length > MAX_FIELD_BYTES:
            raise ProtocolError(
                f"field declares {length} bytes, above the frame limit"
            )
        return self._take(length)

    def text(self):
        raw = self.blob()
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise ProtocolError("text field is not valid UTF-8") from None

    def opt_blob(self):
        return self.blob() if self.boolean() else None

    def opt_text(self):
        return self.text() if self.boolean() else None

    def count(self, limit=MAX_ITEMS):
        value = self.u32()
        if value > limit:
            raise ProtocolError(f"count {value} exceeds the limit of {limit}")
        return value

    def expect_end(self):
        if self._pos != len(self._data):
            raise ProtocolError(
                f"{len(self._data) - self._pos} trailing bytes after payload"
            )


_NO_TAG = 0xFFFFFFFF


def _reference_u32_vector(r, count, what):
    raw = r.blob()
    if len(raw) != 4 * count:
        raise ProtocolError(
            f"{what} vector of {len(raw)} bytes does not match {count} items"
        )
    return struct.unpack(f">{count}I", raw)


def _reference_offsets_spanning(lengths, payloads):
    offsets = tuple(itertools.accumulate(lengths, initial=0))
    if offsets[-1] != len(payloads):
        raise ProtocolError(
            f"payload buffer of {len(payloads)} bytes does not match the "
            f"declared {offsets[-1]}"
        )
    return offsets


def reference_read_tuple_block(r, tagged=True):
    lengths = _reference_u32_vector(r, r.count(), "lengths")
    count = len(lengths)
    tag_lengths = _reference_u32_vector(r, count, "tag-lengths")
    payloads = r.blob()
    tags_raw = r.blob()
    offsets = _reference_offsets_spanning(lengths, payloads)
    carrying = sum(1 for n in tag_lengths if n != _NO_TAG)
    if not tagged and carrying:
        raise ProtocolError(f"{carrying} tagged items in a block that carries no tags")
    tags = [None] * count
    tag_view = memoryview(tags_raw)
    tag_pos = 0
    for i, tag_length in enumerate(tag_lengths):
        if tag_length == _NO_TAG:
            continue
        if tag_pos + tag_length > len(tags_raw):
            raise ProtocolError("tag buffer shorter than its declared lengths")
        tags[i] = bytes(tag_view[tag_pos : tag_pos + tag_length])
        tag_pos += tag_length
    if tag_pos != len(tags_raw):
        raise ProtocolError(
            f"{len(tags_raw) - tag_pos} trailing bytes in the tag buffer"
        )
    return EncryptedTupleBlock(payloads=payloads, offsets=offsets, tags=tuple(tags))


# --------------------------------------------------------------------- #
# the pairs under test: (writer, new reader, reference reader)
# --------------------------------------------------------------------- #
CODECS = {
    "tagged": (
        frames.write_tuple_block,
        frames.read_tuple_block,
        reference_read_tuple_block,
    ),
    "untagged": (
        lambda w, block: frames.write_tuple_block(w, block, tagged=False),
        lambda r: frames.read_tuple_block(r, tagged=False),
        lambda r: reference_read_tuple_block(r, tagged=False),
    ),
}


def outcome(reader_cls, read, data):
    """What one side makes of *data*: its value, or its refusal.  Any
    exception but a ProtocolError escapes and fails the test."""
    r = reader_cls(data)
    try:
        value = read(r)
        r.expect_end()
    except ProtocolError as exc:
        return ("refused", type(exc), str(exc))
    return ("read", value)


def assert_same_outcome(name, data):
    _, read, reference = CODECS[name]
    assert outcome(Reader, read, data) == outcome(ReferenceReader, reference, data)


def encoded(name, block):
    w = Writer()
    CODECS[name][0](w, block)
    return w.getvalue()


# --------------------------------------------------------------------- #
# generated blocks, one strategy per tag shape
# --------------------------------------------------------------------- #
PAYLOADS = st.lists(st.binary(max_size=8), max_size=64)


@st.composite
def blocks(draw):
    payloads = draw(PAYLOADS)
    count = len(payloads)
    shape = draw(st.sampled_from(["none", "empty", "equal", "ragged", "mixed"]))
    if shape == "none":
        tags = [None] * count
    elif shape == "empty":
        tags = [b""] * count
    elif shape == "equal":
        width = draw(st.integers(min_value=1, max_value=6))
        tags = draw(st.lists(st.binary(min_size=width, max_size=width),
                             min_size=count, max_size=count))
    elif shape == "ragged":
        tags = draw(st.lists(st.binary(max_size=6), min_size=count, max_size=count))
    else:
        tags = draw(st.lists(st.none() | st.binary(max_size=6),
                             min_size=count, max_size=count))
    return EncryptedTupleBlock.joined(payloads, tags)


#: the largest block the strategy draws, every tag shape in it
WIDEST = EncryptedTupleBlock.joined(
    [bytes([i]) * (i % 9) for i in range(64)],
    [(None, b"", b"tag", bytes([i]) * (i % 7))[i % 4] for i in range(64)],
)


def for_codec(name, block):
    """The untagged field is written untagged: strip the tags."""
    if name == "untagged":
        return EncryptedTupleBlock(block.payloads, block.offsets, (None,) * len(block))
    return block


@settings(max_examples=300, deadline=None)
@given(block=blocks(), name=st.sampled_from(sorted(CODECS)))
@example(block=WIDEST, name="tagged")
@example(block=WIDEST, name="untagged")
def test_valid_encodings_read_back_the_same_block_on_both_sides(block, name):
    block = for_codec(name, block)
    data = encoded(name, block)
    new = outcome(Reader, CODECS[name][1], data)
    assert new == ("read", block)
    assert new == outcome(ReferenceReader, CODECS[name][2], data)


#: one byte rewritten at each position: its low bit (a length one short
#: or one long), its high bit, and the whole byte
FLIPS = (0x01, 0x80, 0xFF)


@settings(max_examples=40, deadline=None)
@given(block=blocks(), name=st.sampled_from(sorted(CODECS)))
@example(block=WIDEST, name="tagged")
@example(block=WIDEST, name="untagged")
def test_every_truncation_and_byte_flip_gets_the_same_answer(block, name):
    data = encoded(name, for_codec(name, block))
    for end in range(len(data)):
        assert_same_outcome(name, data[:end])
    for at in range(len(data)):
        for mask in FLIPS:
            flipped = bytearray(data)
            flipped[at] ^= mask
            assert_same_outcome(name, bytes(flipped))


@settings(max_examples=200, deadline=None)
@given(block=blocks(), name=st.sampled_from(sorted(CODECS)),
       at=st.integers(min_value=0), mask=st.integers(min_value=1, max_value=0xFF))
def test_any_one_byte_rewrite_gets_the_same_answer(block, name, at, mask):
    data = bytearray(encoded(name, for_codec(name, block)))
    data[at % len(data)] ^= mask
    assert_same_outcome(name, bytes(data))


# --------------------------------------------------------------------- #
# named cases
# --------------------------------------------------------------------- #
def test_an_all_empty_tag_block_keeps_its_empty_tags():
    """Every tag length 0: a step-0 cut of the tag buffer is the
    obvious bug, and b"" must not turn into None."""
    block = EncryptedTupleBlock.joined([b"a", b"bc", b""], [b"", b"", b""])
    data = encoded("tagged", block)
    assert outcome(Reader, frames.read_tuple_block, data) == ("read", block)
    assert_same_outcome("tagged", data)


def test_tags_of_several_widths_are_not_cut_as_one():
    """The first tag the widest, no None: nothing may take the block for
    a one-width one."""
    for tags in ([b"long", b"ab"], [b"ab", b"ab", b""], [b"", b"x"]):
        block = EncryptedTupleBlock.joined([b"p"] * len(tags), tags)
        data = encoded("tagged", block)
        assert outcome(Reader, frames.read_tuple_block, data) == ("read", block)
        assert_same_outcome("tagged", data)


def test_a_huge_tag_length_over_a_short_buffer_is_refused_alike():
    w = Writer()
    w.u32(1)
    w.blob(struct.pack(">I", 3))
    w.blob(struct.pack(">I", 0xFFFFFFFE))
    w.blob(b"abc")
    w.blob(b"xy")
    data = w.getvalue()
    assert outcome(Reader, frames.read_tuple_block, data) == (
        "refused", ProtocolError, "tag buffer shorter than its declared lengths"
    )
    assert_same_outcome("tagged", data)


def test_trailing_tag_bytes_are_refused_alike():
    w = Writer()
    w.u32(2)
    w.blob(struct.pack(">2I", 1, 1))
    w.blob(struct.pack(">2I", 2, _NO_TAG))
    w.blob(b"ab")
    w.blob(b"xyz")
    data = w.getvalue()
    assert outcome(Reader, frames.read_tuple_block, data) == (
        "refused", ProtocolError, "1 trailing bytes in the tag buffer"
    )
    assert_same_outcome("tagged", data)


def test_a_sentinel_beside_a_huge_tag_length_is_refused_alike():
    w = Writer()
    w.u32(2)
    w.blob(struct.pack(">2I", 1, 1))
    w.blob(struct.pack(">2I", _NO_TAG, 0xFFFFFFFE))
    w.blob(b"ab")
    w.blob(b"")
    assert_same_outcome("tagged", w.getvalue())


def test_tagged_rows_and_tagged_units_are_refused():
    """The one codec, read by a field that carries no tags: a tagged
    block is refused there and read as sent where tags belong."""
    block = EncryptedTupleBlock.joined([b"r1", b"r2", b"r3"], [None, b"g", b""])
    data = encoded("tagged", block)
    assert outcome(Reader, CODECS["untagged"][1], data) == (
        "refused", ProtocolError, "2 tagged items in a block that carries no tags"
    )
    assert_same_outcome("untagged", data)
    result = ops.PARTITION_RESULT
    assert result.read(Reader(bytes([frames.RESULT_PARTIALS]) + data)) == (
        frames.RESULT_PARTIALS, block,
    )
    with pytest.raises(ProtocolError, match="carries no tags"):
        result.read(Reader(bytes([frames.RESULT_ROWS]) + data))
    unit = Writer().text("q").u8(frames.WORK_FOLD).i64(1).getvalue() + data
    with pytest.raises(ProtocolError, match="carries no tags"):
        frames.read_work_unit(Reader(unit))
    answer = Writer().u32(0).boolean(True).getvalue() + unit + Writer().u32(0).getvalue()
    with pytest.raises(ProtocolError, match="carries no tags"):
        ops.AWAIT_WORK.response.read(Reader(answer))


# --------------------------------------------------------------------- #
# the scalar cursor and the ascending-offsets check
# --------------------------------------------------------------------- #
FIELDS = ("u8", "u32", "i64", "f64", "boolean", "blob", "text",
          "opt_blob", "opt_text", "count")


def _scalar(value):
    """NaN != NaN: compare floats by their bits."""
    if isinstance(value, float):
        return struct.pack(">d", value)
    return value


def _walk(reader, fields):
    trail = []
    for name in fields:
        try:
            trail.append(("read", _scalar(getattr(reader, name)())))
        except ProtocolError as exc:
            trail.append(("refused", str(exc)))
            break
        trail.append(("at", reader.mark()))
    return trail


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=64), fields=st.lists(st.sampled_from(FIELDS), max_size=12))
def test_the_reader_walks_any_bytes_as_the_parents_did(data, fields):
    assert _walk(Reader(data), fields) == _walk(ReferenceReader(data), fields)


@settings(max_examples=300, deadline=None)
@given(offsets=st.lists(st.integers(min_value=-3, max_value=3), max_size=8))
def test_offsets_ascend_is_the_pairwise_check(offsets):
    assert offsets_ascend(offsets) == (
        not any(a > b for a, b in zip(offsets, offsets[1:]))
    )
    assert offsets_ascend(tuple(offsets)) == offsets_ascend(offsets)

