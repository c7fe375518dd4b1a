"""A uniform tuple block written and read as one array, against the frame codec.

``encode_tuple_frames`` writes a block whose rows share one key set and
value layout as one fixed-stride array, and ``decode_frames`` reads such
a block column by column; everything else goes frame by frame through
the generic codec, which defines the format.  Which path ran must not
show: the bytes written, the values read and the error raised are the
frame-by-frame ones, for uniform, mixed and ragged blocks alike.  With
numpy blocked the same assertions hold over the frame-by-frame path.
"""

import random
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import wire
from repro.core.codec import encode
from repro.core.messages import EncryptedTupleBlock, Partition, TupleContent
from repro.core.wire import TUPLE_FRAME_QUANTUM, decode_frame, decode_frames, encode_tuple_frames
from repro.crypto.keys import KeyProvisioner, random_key
from repro.exceptions import ProtocolError, ResourceExhaustedError
from repro.sql.parser import parse
from repro.sql.partial import PartialAggregation
from repro.sql.schema import Database
from repro.tds.access_control import Authority, permissive_policy
from repro.tds.device import DeviceProfile
from repro.tds.node import TrustedDataServer

COLUMN = wire._COLUMN_FRAMES
LANES = [0, 1, COLUMN - 1, COLUMN, 62, 250]
KINDS = (TupleContent.KIND_DATA, TupleContent.KIND_FAKE)


def reference_frame(content: TupleContent, quantum: int = TUPLE_FRAME_QUANTUM) -> bytes:
    return wire._pad(encode(["t", content.to_portable()]), quantum)


def packed(frames: list[bytes]) -> tuple[bytes, tuple[int, ...]]:
    return b"".join(frames), tuple(accumulate(map(len, frames), initial=0))


def outcome(frames: list[bytes]):
    """What the block decoder did: its value, or its ProtocolError."""
    try:
        return "value", decode_frames(*packed(frames))
    except ProtocolError as exc:
        return "error", str(exc)


def frame_by_frame(frames: list[bytes]):
    try:
        return "value", [decode_frame(frame) for frame in frames]
    except ProtocolError as exc:
        return "error", str(exc)


def int_of_width(width: int):
    low = 0 if width == 1 else 2 ** (8 * width - 9)
    magnitude = st.integers(low, 2 ** (8 * width - 1) - 1)
    return st.tuples(magnitude, st.booleans()).map(lambda p: -p[0] if p[1] else p[0])


#: per column type, the values of one layout (the int's and the string's
#: widths are drawn once per column)
COLUMN_VALUES = {
    "float": lambda width: st.floats(allow_nan=False),
    "str": lambda width: st.text(alphabet="abcxyzé", min_size=width, max_size=width).filter(
        lambda text: len(text.encode()) == width
    ),
    "ascii": lambda width: st.text(alphabet="district-0123", min_size=width, max_size=width),
    "bytes": lambda width: st.binary(min_size=width, max_size=width),
    "int": lambda width: int_of_width(width),
    "none": lambda width: st.none(),
    "bool": lambda width: st.just(width % 2 == 0),
    "empty": lambda width: st.just(""),
}


@st.composite
def uniform_blocks(draw, lanes=st.sampled_from(LANES)):
    """Contents of one key set and one value layout."""
    keys = draw(st.lists(st.text(max_size=8), max_size=4, unique=True))
    columns = {
        key: COLUMN_VALUES[draw(st.sampled_from(sorted(COLUMN_VALUES)))](
            draw(st.integers(1, 3))
        )
        for key in keys
    }
    kind = draw(st.sampled_from(KINDS))
    return [
        TupleContent(kind, {key: draw(values) for key, values in columns.items()})
        for __ in range(draw(lanes))
    ]


@st.composite
def odd_rows(draw):
    """A row no uniform block shares a layout with."""
    return draw(
        st.sampled_from(
            [
                TupleContent("data", {"other": 1.5}),
                TupleContent("data", {}),
                TupleContent("dummy", {}),
                TupleContent("data", {"long": "x" * 300}),  # a ragged, 512-byte frame
                TupleContent("data", {"nested": [1, 2]}),
            ]
        )
    )


class TestEncodeParity:
    @settings(max_examples=150, deadline=None)
    @given(uniform_blocks(), st.sampled_from([64, TUPLE_FRAME_QUANTUM]))
    def test_uniform_blocks(self, contents, quantum):
        assert encode_tuple_frames(contents, quantum) == packed(
            [reference_frame(content, quantum) for content in contents]
        )

    @settings(max_examples=100, deadline=None)
    @given(uniform_blocks(st.sampled_from([COLUMN, 62])), odd_rows(), st.data())
    def test_one_odd_row(self, contents, odd, data):
        contents.insert(data.draw(st.integers(0, len(contents))), odd)
        assert encode_tuple_frames(contents) == packed(
            [reference_frame(content) for content in contents]
        )

    @pytest.mark.skipif(wire._np is None, reason="the column path needs numpy")
    def test_a_contribution_takes_the_column_path(self):
        rows = [{"C.district": "district-003", "P.cons": 0.25 * i} for i in range(250)]
        contents = [TupleContent("data", row) for row in rows]
        layout = wire._layout(contents[0], TUPLE_FRAME_QUANTUM)
        block = wire._encode_columns(contents, layout)
        assert block == b"".join(reference_frame(content) for content in contents)
        assert wire._encode_columns(contents[:1] + [TupleContent("data", {})], layout) is None


class TestDecodeParity:
    @settings(max_examples=150, deadline=None)
    @given(uniform_blocks())
    def test_uniform_blocks(self, contents):
        frames = [reference_frame(content) for content in contents]
        decoded = decode_frames(*packed(frames))
        assert decoded == [decode_frame(frame) for frame in frames]
        for (__, body), content in zip(decoded, contents):
            assert list(body.row) == sorted(content.row, key=encode)

    @settings(max_examples=100, deadline=None)
    @given(
        uniform_blocks(st.sampled_from([COLUMN, 62])),
        st.lists(odd_rows(), max_size=3),
        st.booleans(),
        st.data(),
    )
    def test_mixed_and_ragged_blocks(self, contents, odds, partial, data):
        frames = [reference_frame(content) for content in contents]
        for odd in odds:
            frames.insert(data.draw(st.integers(0, len(frames))), reference_frame(odd))
        if partial:  # a partial frame among tuple frames, as in a later S_Agg round
            portable = [[["g"], [{"kind": "count", "count": 3}]]]
            frame = wire._pad(encode(["p", portable]), TUPLE_FRAME_QUANTUM)
            frames.insert(data.draw(st.integers(0, len(frames))), frame)
        assert outcome(frames) == frame_by_frame(frames)


def _good(index: int) -> bytes:
    row = {"C.district": "district-00%d" % (index % 8), "P.cons": 100.0 + index}
    return reference_frame(TupleContent("data", row))


def _malformed(name: str) -> bytes:
    good = bytearray(_good(5))
    length = int.from_bytes(good[:4], "big")
    if name == "non-zero padding":
        good[-1] = 1
    elif name == "bad length prefix":
        good[:4] = (length + 1).to_bytes(4, "big")
    elif name == "length past the frame":
        good[:4] = (TUPLE_FRAME_QUANTUM).to_bytes(4, "big")
    elif name == "non-UTF-8":
        at = good.index(b"district-005")
        good[at : at + 2] = b"\xff\xfe"
    elif name == "unknown frame kind":
        at = good.index(encode("t"))
        good[at : at + len(encode("t"))] = encode("z")
    elif name == "wrong value tag":
        good[good.index(b"district-005") - 5] = 0x9E
    elif name == "another key set":
        return reference_frame(TupleContent("data", {"C.district": "district-005"}))
    elif name == "unknown tuple kind":
        return reference_frame(TupleContent("what", {"C.district": "d", "P.cons": 1.0}))
    return bytes(good)


MALFORMED = [
    "non-zero padding",
    "bad length prefix",
    "length past the frame",
    "non-UTF-8",
    "unknown frame kind",
    "wrong value tag",
]


class TestRejection:
    """Each frame of a uniform block is judged as ``decode_frame`` judges
    it alone: the block raises that frame's ProtocolError, wherever it
    sits, or decodes it to the same value."""

    @pytest.mark.parametrize("lanes", [COLUMN, 62, 250])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize(
        "name", MALFORMED + ["another key set", "unknown tuple kind"]
    )
    def test_like_the_frame_alone(self, lanes, where, name):
        frames = [_good(i) for i in range(lanes)]
        at = {"first": 0, "middle": lanes // 2, "last": lanes - 1}[where]
        frames[at] = _malformed(name)
        alone = frame_by_frame([frames[at]])
        assert (alone[0] == "error") == (name in MALFORMED)
        assert outcome(frames) == frame_by_frame(frames)
        if alone[0] == "error":
            assert outcome(frames) == alone

    def test_the_first_malformed_frame_speaks(self):
        frames = [_good(i) for i in range(62)]
        frames[10] = _malformed("non-UTF-8")
        frames[40] = _malformed("non-zero padding")
        assert outcome(frames) == frame_by_frame([frames[10]])


@pytest.fixture
def cramped():
    """A TDS with room for a handful of groups, and its k2 cipher."""
    rng = random.Random(0)
    provisioner = KeyProvisioner(rng)
    tiny = DeviceProfile(
        name="tiny", cpu_hz=1e6, crypto_cycles_per_block=167,
        cpu_cycles_per_byte=30, link_bps=1e6, ram_bytes=256,
    )
    return TrustedDataServer(
        "cramped", Database(), provisioner.bundle_for_tds(),
        permissive_policy(["T"]), Authority(random_key(rng)), device=tiny,
        rng=random.Random(7),
    )


class TestRamBound:
    @pytest.mark.parametrize("lanes", [COLUMN, 62, 250])
    def test_fires_at_the_same_item(self, cramped, lanes, monkeypatch):
        statement = parse("SELECT x, COUNT(*) FROM T GROUP BY x")
        contents = [TupleContent("data", {"T.x": i % 100}) for i in range(lanes)]
        frames, offsets = packed([reference_frame(content) for content in contents])
        sealed, sealed_offsets = cramped._k2_cipher().encrypt_block(frames, offsets)
        partition = Partition(
            0, EncryptedTupleBlock(sealed, sealed_offsets, (None,) * lanes)
        )
        added = []
        real = PartialAggregation.add_row
        monkeypatch.setattr(
            PartialAggregation, "add_row", lambda self, row: added.append(row) or real(self, row)
        )

        def fold() -> tuple[str, int]:
            del added[:]
            try:
                cramped.aggregate_partition(statement, partition)
            except ResourceExhaustedError as exc:
                return str(exc), len(added)
            return "fits", len(added)

        columns = fold()
        monkeypatch.setattr(wire, "_COLUMN_FRAMES", 10**9)  # frame by frame
        assert fold() == columns
        assert columns[0] != "fits" or lanes < 16
