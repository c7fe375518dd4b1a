"""Wire format of encrypted payloads: framing + length padding.

Inside every nDet_Enc payload lives one of two frames:

* a **tuple frame** — one :class:`~repro.core.messages.TupleContent`
  (collection phase);
* a **partial frame** — the portable form of a
  :class:`~repro.sql.partial.PartialAggregation` (aggregation phase).

Payloads are padded to a size quantum before encryption.  nDet_Enc hides
content but not length; without padding the SSI could distinguish dummy
tuples from data tuples (or small partials from large ones) by size alone,
re-opening the inference channel the dummies exist to close.
"""

from __future__ import annotations

import functools
import struct
from itertools import accumulate
from typing import Any, Iterable, Sequence

from repro.core.codec import CodecError, _encode_into, decode, dict_header, encode, list_header
from repro.core.messages import TupleContent, offsets_stride
from repro.exceptions import ProtocolError

try:  # optional: a uniform tuple block is written and read as one array
    import numpy as _np
except ImportError:  # pragma: no cover - environment without numpy
    _np = None

#: payload sizes are rounded up to a multiple of this many bytes
SIZE_QUANTUM = 64

#: ceiling on the *declared* inner length of a padded frame.  The length
#: field is attacker-controlled once frames travel over a real transport;
#: anything beyond this is rejected before interpretation rather than
#: trusted into allocations.
MAX_INNER_LENGTH = 16 * 1024 * 1024

#: tuple frames use a larger quantum so a dummy tuple (empty row) and a
#: typical data tuple land in the *same* size class — otherwise the SSI
#: could tell them apart by length and dummies would be pointless
TUPLE_FRAME_QUANTUM = 256

#: from this many frames a block of one layout is one array, column by
#: column (2-column rows, 2-core host: writing wins from 5, reading 10-16)
_COLUMN_FRAMES = 8

_FRAME_TUPLE = "t"
_FRAME_PARTIAL = "p"

# ``encode([_FRAME_TUPLE, {"kind": kind, "row": row}])`` is
# _TUPLE_HEAD + encode(row) + _TUPLE_MID + encode(kind): dict entries
# sort by encoded key, and encode("row") < encode("kind") (shorter).
_TUPLE_HEAD = list_header(2) + encode(_FRAME_TUPLE) + dict_header(2) + encode("row")
_TUPLE_MID = encode("kind")

# the codec's type tags of the values a column holds, and per tag the
# bytes before the value's payload: a length prefix for str, bytes and int
_FLOAT, _STR, _BYTES, _INT = (encode(value)[0] for value in (0.0, "", b"", 0))
_HEADS = {encode(value)[0]: 1 for value in (0.0, None, False, True)}
_HEADS.update(dict.fromkeys((_STR, _BYTES, _INT), 5))
#: how a value's payload bytes read back, by type tag
_READ = {_FLOAT: lambda raw: struct.unpack(">d", raw)[0], _BYTES: bytes}
_READ[_STR] = lambda raw: raw.decode("utf-8")
_READ[_INT] = lambda raw: int.from_bytes(raw, "big", signed=True)


def _pad(data: bytes, quantum: int = SIZE_QUANTUM) -> bytes:
    """Length-prefix then zero-pad *data* to a quantum multiple."""
    framed = len(data).to_bytes(4, "big") + data
    remainder = len(framed) % quantum
    if remainder:
        framed += bytes(quantum - remainder)
    return framed


def _unpad(data: bytes) -> bytes:
    if len(data) < 4:
        raise ProtocolError("padded frame too short")
    length = int.from_bytes(data[:4], "big")
    if length > MAX_INNER_LENGTH:
        raise ProtocolError(
            f"padded frame declares {length} bytes, above the "
            f"{MAX_INNER_LENGTH}-byte limit"
        )
    if 4 + length > len(data):
        raise ProtocolError("padded frame length field corrupt")
    if any(data[4 + length :]):
        raise ProtocolError("padded frame has nonzero padding bytes")
    return data[4 : 4 + length]


def _layout(content: TupleContent, quantum: int) -> tuple | None:
    """*content*'s tuple frame, its row's keys in wire order, its values (the
    row's, then the kind) and where each sits: type tag, payload offset and
    width (0: None, a bool, "" or b""; one value per layout); or None."""
    row, kind = content.row, content.kind
    wire = _wire_keys(tuple(row)) if type(row) is dict and type(kind) is str else None
    if wire is None:
        return None
    keys, prefixes, head = wire
    values = [row[key] for key in keys] + [kind]
    out = bytearray(head)
    spans = []
    for prefix, value in zip(prefixes, values):
        out += prefix
        at = len(out)
        _encode_into(value, out)
        head = _HEADS.get(out[at])
        if head is None:
            return None  # a list, dict or set: no column
        spans.append((out[at], at + head, len(out) - at - head))
    out[:4] = (len(out) - 4).to_bytes(4, "big")
    out += bytes(-len(out) % quantum)
    return bytes(out), keys, values, spans


@functools.lru_cache(maxsize=64)
def _wire_keys(keys: tuple[str, ...]) -> tuple[tuple, tuple[bytes, ...], bytes] | None:
    """A key set in wire order, its values' prefixes (each key's encoding,
    then the kind's) and the frame head; None unless every key is a str."""
    if any(type(key) is not str for key in keys):
        return None
    entries = sorted((encode(key), key) for key in keys)
    prefixes = tuple(encoded for encoded, __ in entries) + (_TUPLE_MID,)
    head = bytes(4) + _TUPLE_HEAD + dict_header(len(keys))
    return tuple(key for __, key in entries), prefixes, head


def encode_tuple_frame(content: TupleContent, quantum: int = TUPLE_FRAME_QUANTUM) -> bytes:
    """Serialize one tuple content, padded to the tuple-frame quantum: the
    key set's cached head and key encodings, each value encoded in place."""
    row = content.row
    wire = _wire_keys(tuple(row)) if type(row) is dict else None
    if wire is None:
        return _pad(encode([_FRAME_TUPLE, content.to_portable()]), quantum)
    keys, prefixes, out = wire
    out = bytearray(out)
    for prefix, key in zip(prefixes, keys):
        out += prefix
        _encode_into(row[key], out)
    out += _TUPLE_MID
    _encode_into(content.kind, out)
    out[:4] = (len(out) - 4).to_bytes(4, "big")
    out += bytes(-len(out) % quantum)
    return bytes(out)


def _encode_columns(contents: list[TupleContent], layout: tuple) -> bytes | None:
    """The frames of *contents* as one buffer when every row has *layout*:
    each column checked and encoded, then written over the tiled frame."""
    frame, keys, values, spans = layout
    rows = [content.row for content in contents]
    if set(map(type, rows)) != {dict} or set(map(len, rows)) != {len(keys)}:
        return None
    try:
        columns = [[row[key] for row in rows] for key in keys] + [[c.kind for c in contents]]
    except KeyError:
        return None
    cells = []
    for (tag, __, width), value, column in zip(spans, values, columns):
        if set(map(type, column)) != {type(value)}:
            return None
        if tag == _FLOAT:
            cells.append(_np.array(column, dtype=">f8").view(_np.uint8))
            continue
        if tag == _STR:
            column = [text.encode("utf-8") for text in column]
        elif tag == _INT:
            column = [n.to_bytes((n.bit_length() + 8) // 8, "big", signed=True) for n in column]
        elif not width:  # None, a bool or b"": the tag and length are the value
            column = [b"" for item in column if item == value]
        if set(map(len, column)) != {width} or len(column) != len(rows):
            return None
        cells.append(_np.frombuffer(b"".join(column), dtype=_np.uint8))
    block = _np.tile(_np.frombuffer(frame, dtype=_np.uint8), (len(rows), 1))
    for (__, at, width), column in zip(spans, cells):
        block[:, at : at + width] = column.reshape(len(rows), width)
    return block.tobytes()


def encode_tuple_frames(
    contents: Iterable[TupleContent], quantum: int = TUPLE_FRAME_QUANTUM
) -> tuple[bytes, tuple[int, ...]]:
    """Serialize tuple contents, each padded to the tuple-frame quantum,
    into one buffer plus its offsets table, byte for byte the generic
    codec's frames: from ``_COLUMN_FRAMES`` rows of one key set and value
    layout one array, column by column (:func:`_encode_columns`), else
    frame by frame (:func:`encode_tuple_frame`)."""
    contents, frames = list(contents), []
    if _np is not None and len(contents) >= _COLUMN_FRAMES:
        layout = _layout(contents[0], quantum)
        if layout is not None:
            block = _encode_columns(contents, layout)
            if block is not None:
                return block, tuple(range(0, len(block) + 1, len(block) // len(contents)))
            frames.append(layout[0])
    frames += [encode_tuple_frame(content, quantum) for content in contents[len(frames) :]]
    return b"".join(frames), tuple(accumulate(map(len, frames), initial=0))


def encode_partial_frame(portable: list[Any], quantum: int = SIZE_QUANTUM) -> bytes:
    """Serialize one partial-aggregation portable structure, padded."""
    return _pad(encode([_FRAME_PARTIAL, portable]), quantum)


def decode_frames(payloads: bytes, offsets: Sequence[int]) -> list[tuple[str, Any]]:
    """Decode the frames packed in *payloads* + *offsets* into
    ``("tuple", TupleContent)`` or ``("partial", portable)`` pairs.

    Every malformation — truncated or oversized length prefixes, codec
    corruption, invalid UTF-8, structurally wrong bodies, unknown frame
    kinds — surfaces as :class:`ProtocolError`; nothing from the byte
    level (``IndexError``, ``UnicodeDecodeError``, ``TypeError``...) may
    cross this boundary, because frames arrive from the network.

    A first frame that is a canonical tuple frame of scalars sets the layout
    the others are read against in place (``_COLUMN_FRAMES`` or more of one
    stride column by column); :func:`decode_frame` judges every other frame."""
    if len(offsets) < 2:
        return []
    count, start = len(offsets) - 1, offsets[0]
    first = decode_frame(payloads[start : offsets[1]])
    layout = _layout(first[1], offsets[1] - start) if count > 1 and first[0] == "tuple" else None
    if layout is None or layout[0] != payloads[start : offsets[1]]:
        return [first] + [decode_frame(payloads[a:b]) for a, b in zip(offsets[1:], offsets[2:])]
    stride = offsets_stride(offsets) if _np is not None and count >= _COLUMN_FRAMES else -1
    decoded = _decode_columns(payloads, start, count, stride, layout) if stride > 0 else None
    if decoded is not None:
        return decoded
    return [first] + [_read_frame(payloads[a:b], layout) for a, b in zip(offsets[1:], offsets[2:])]


def _read_frame(frame: bytes, layout: tuple) -> tuple[str, Any]:
    """Decode *frame*, in place when it is the layout's frame outside its
    values; :func:`decode_frame` judges any other."""
    template, keys, values, spans = layout
    read, start = [], 0
    try:
        for (tag, at, width), value in zip(spans, values):
            if frame[start:at] != template[start:at]:
                return decode_frame(frame)
            read.append(_READ[tag](frame[at : at + width]) if width else value)
            start = at + width
    except UnicodeDecodeError:
        return decode_frame(frame)
    if frame[start:] != template[start:]:
        return decode_frame(frame)
    return "tuple", TupleContent(read.pop(), dict(zip(keys, read)))


def _decode_columns(
    payloads: bytes, start: int, count: int, stride: int, layout: tuple
) -> list[tuple[str, Any]] | None:
    frame, keys, values, spans = layout
    block = _np.frombuffer(payloads, _np.uint8, count * stride, start).reshape(count, stride)
    mask = _np.full(stride, 0xFF, dtype=_np.uint8)  # the bytes outside the values
    columns: list[list[Any]] = []
    try:
        for (tag, at, width), value in zip(spans, values):
            mask[at : at + width] = 0
            if not width:
                columns.append([value] * count)
            elif tag == _FLOAT:
                columns.append(block[:, at : at + 8].view(">f8").ravel().tolist())
            else:
                raw = block[:, at : at + width].view((_np.void, width)).ravel().tolist()
                columns.append(list(map(_READ[tag], raw)))
    except UnicodeDecodeError:
        return None
    unit = _np.uint64 if stride % 8 == 0 else _np.uint8
    template = _np.frombuffer(frame, dtype=_np.uint8).view(unit)
    odd = ((block.view(unit) ^ template) & mask.view(unit)).any(axis=1)
    # zip(keys, row) stops before the row's last value, its kind
    decoded = [("tuple", TupleContent(row[-1], dict(zip(keys, row)))) for row in zip(*columns)]
    for index in odd.nonzero()[0].tolist():
        at = start + index * stride
        decoded[index] = decode_frame(payloads[at : at + stride])
    return decoded


def decode_frame(data: bytes) -> tuple[str, Any]:
    """Decode one frame (see :func:`decode_frames`)."""
    try:
        decoded = decode(_unpad(data))
    except ProtocolError:
        raise
    except (CodecError, UnicodeDecodeError, ValueError, TypeError) as exc:
        raise ProtocolError(f"malformed frame: {exc}") from None
    try:
        kind, body = decoded
    except (TypeError, ValueError):
        raise ProtocolError("frame body is not a [kind, body] pair") from None
    if kind == _FRAME_TUPLE:
        try:
            return "tuple", TupleContent.from_portable(body)
        except (KeyError, TypeError, AttributeError):
            raise ProtocolError("malformed tuple frame body") from None
    if kind == _FRAME_PARTIAL:
        return "partial", body
    raise ProtocolError(f"unknown frame kind {kind!r}")
