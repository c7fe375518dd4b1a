"""Compact, deterministic binary codec for tuples and aggregate states.

Everything that travels between TDSs and the SSI is encrypted *bytes*; this
codec is the canonical serialization underneath.  It is:

* **self-describing** — a one-byte tag per value, so heterogeneous rows
  round-trip without a schema;
* **deterministic** — the same value always encodes to the same bytes,
  which matters because ``Det_Enc`` equality (and therefore SSI-side
  grouping) is defined on the *encoding* of the grouping value;
* **dependency-free** — no pickle (unsafe across trust boundaries), no
  JSON (not deterministic for floats / dict ordering).

Supported types: ``None``, ``bool``, ``int``, ``float``, ``str``,
``bytes``, ``list``, ``tuple`` (decoded as list), ``dict`` (sorted by
encoded key) and ``frozenset``/``set`` (sorted by encoded element).

:func:`encode` / :func:`decode` define the format.  :class:`DictTemplate`
is a shortcut through it for many dicts with one key set (the rows of a
tuple block): it writes and recognises exactly the bytes :func:`encode`
produces, and declines — leaving the value to the generic functions —
whatever it does not recognise.
"""

from __future__ import annotations

import functools
import struct
from typing import Any, Hashable

from repro.exceptions import ReproError


class CodecError(ReproError):
    """Raised on malformed input or unsupported types."""


_TAG_NONE = 0x00
_TAG_FALSE = 0x01
_TAG_TRUE = 0x02
_TAG_INT = 0x03
_TAG_FLOAT = 0x04
_TAG_STR = 0x05
_TAG_BYTES = 0x06
_TAG_LIST = 0x07
_TAG_DICT = 0x08
_TAG_SET = 0x09


def _encode_varlen(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


def _encode_into(value: Any, out: bytearray) -> None:
    if value is None:
        out.append(_TAG_NONE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif isinstance(value, int):
        payload = value.to_bytes((value.bit_length() + 8) // 8 or 1, "big", signed=True)
        out.append(_TAG_INT)
        out += _encode_varlen(payload)
    elif isinstance(value, float):
        out.append(_TAG_FLOAT)
        out += struct.pack(">d", value)
    elif isinstance(value, str):
        out.append(_TAG_STR)
        out += _encode_varlen(value.encode("utf-8"))
    elif isinstance(value, (bytes, bytearray)):
        out.append(_TAG_BYTES)
        out += _encode_varlen(bytes(value))
    elif isinstance(value, (list, tuple)):
        out.append(_TAG_LIST)
        out += struct.pack(">I", len(value))
        for item in value:
            _encode_into(item, out)
    elif isinstance(value, dict):
        out.append(_TAG_DICT)
        out += struct.pack(">I", len(value))
        entries = sorted((encode(k), v) for k, v in value.items())
        for encoded_key, item in entries:
            out += encoded_key
            _encode_into(item, out)
    elif isinstance(value, (set, frozenset)):
        out.append(_TAG_SET)
        out += struct.pack(">I", len(value))
        for encoded in sorted(encode(item) for item in value):
            out += encoded
    else:
        raise CodecError(f"unsupported type for codec: {type(value).__name__}")


def list_header(count: int) -> bytes:
    """The bytes that open the encoding of a *count*-element list."""
    return bytes([_TAG_LIST]) + struct.pack(">I", count)


def dict_header(count: int) -> bytes:
    """The bytes that open the encoding of a *count*-entry dict."""
    return bytes([_TAG_DICT]) + struct.pack(">I", count)


def encode(value: Any) -> bytes:
    """Encode *value* to its canonical byte representation."""
    out = bytearray()
    _encode_into(value, out)
    return bytes(out)


def encode_many(values: list[Any]) -> list[bytes]:
    """Encode a batch of values (companion to the batched cipher APIs).

    Vectorized: all values are encoded into *one* growing buffer with an
    offsets table, then sliced out in a single pass — one large
    allocation instead of a bytearray + bytes copy per value."""
    out = bytearray()
    offsets = [0]
    for value in values:
        _encode_into(value, out)
        offsets.append(len(out))
    view = memoryview(out)
    return [
        bytes(view[offsets[i] : offsets[i + 1]]) for i in range(len(values))
    ]


def encode_packed(values: list[Any]) -> tuple[bytes, list[int]]:
    """Encode a batch into one contiguous buffer, returning the buffer
    and its offsets table (``len(values) + 1`` entries) — the zero-copy
    companion for columnar batch framing."""
    out = bytearray()
    offsets = [0]
    for value in values:
        _encode_into(value, out)
        offsets.append(len(out))
    return bytes(out), offsets


class _Reader:
    """Cursor over an encoded buffer."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CodecError("truncated codec payload")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def take_varlen(self) -> bytes:
        (length,) = struct.unpack(">I", self.take(4))
        return self.take(length)


def _decode_from(reader: _Reader) -> Any:
    tag = reader.take(1)[0]
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_TRUE:
        return True
    if tag == _TAG_FALSE:
        return False
    if tag == _TAG_INT:
        return int.from_bytes(reader.take_varlen(), "big", signed=True)
    if tag == _TAG_FLOAT:
        (value,) = struct.unpack(">d", reader.take(8))
        return value
    if tag == _TAG_STR:
        return reader.take_varlen().decode("utf-8")
    if tag == _TAG_BYTES:
        return reader.take_varlen()
    if tag == _TAG_LIST:
        (count,) = struct.unpack(">I", reader.take(4))
        return [_decode_from(reader) for __ in range(count)]
    if tag == _TAG_DICT:
        (count,) = struct.unpack(">I", reader.take(4))
        result = {}
        for __ in range(count):
            key = _decode_from(reader)
            result[key] = _decode_from(reader)
        return result
    if tag == _TAG_SET:
        (count,) = struct.unpack(">I", reader.take(4))
        return frozenset(_decode_from(reader) for __ in range(count))
    raise CodecError(f"unknown codec tag 0x{tag:02x}")


def decode(data: bytes) -> Any:
    """Decode a value previously produced by :func:`encode`.

    Raises :class:`CodecError` if trailing bytes remain (a sign of
    corruption or framing mistakes)."""
    reader = _Reader(data)
    value = _decode_from(reader)
    if reader.pos != len(data):
        raise CodecError(f"{len(data) - reader.pos} trailing bytes after codec payload")
    return value


def decode_many(blobs: list[bytes]) -> list[Any]:
    """Decode a batch of independently-encoded payloads.

    Vectorized: the blobs are joined into one buffer and decoded with a
    single cursor, checking each value lands exactly on its segment
    boundary — one reader for the whole batch instead of one per blob."""
    reader = _Reader(b"".join(blobs))
    values = []
    boundary = 0
    for blob in blobs:
        boundary += len(blob)
        values.append(_decode_from(reader))
        if reader.pos > boundary:
            raise CodecError("codec payload crossed its segment boundary")
        if reader.pos < boundary:
            raise CodecError(
                f"{boundary - reader.pos} trailing bytes after codec payload"
            )
    return values


def decode_packed(buffer: bytes, offsets: list[int]) -> list[Any]:
    """Decode values packed by :func:`encode_packed` (or sliced by an
    offsets table) without materializing per-value byte strings."""
    reader = _Reader(buffer)
    values = []
    for boundary in offsets[1:]:
        values.append(_decode_from(reader))
        if reader.pos > boundary:
            raise CodecError("codec payload crossed its segment boundary")
        if reader.pos < boundary:
            raise CodecError(
                f"{boundary - reader.pos} trailing bytes after codec payload"
            )
    return values


# ---------------------------------------------------------------------- #
# many dicts with one key set
# ---------------------------------------------------------------------- #
_TAGGED_F64 = struct.Struct(">Bd")
_TAGGED_U32 = struct.Struct(">BI")
_F64_AT = struct.Struct(">d").unpack_from
_U32_AT = struct.Struct(">I").unpack_from


def read_scalar(data: bytes, pos: int, end: int) -> tuple[Any, int]:
    """Decode the scalar at ``data[pos:end]`` in place: the value and the
    position after it.  :class:`CodecError` when what is there is not a
    complete ``None``/bool/int/float/str/bytes inside *end* — the
    caller then lets :func:`decode` judge the payload."""
    if pos < end:
        tag = data[pos]
        if tag == _TAG_FLOAT:
            if pos + 9 <= end:
                return _F64_AT(data, pos + 1)[0], pos + 9
        elif tag == _TAG_STR or tag == _TAG_INT or tag == _TAG_BYTES:
            if pos + 5 <= end:
                start = pos + 5
                stop = start + _U32_AT(data, pos + 1)[0]
                if stop <= end:
                    if tag == _TAG_STR:
                        return data[start:stop].decode("utf-8"), stop
                    if tag == _TAG_BYTES:
                        return data[start:stop], stop
                    return int.from_bytes(data[start:stop], "big", signed=True), stop
        elif tag == _TAG_NONE:
            return None, pos + 1
        elif tag == _TAG_TRUE:
            return True, pos + 1
        elif tag == _TAG_FALSE:
            return False, pos + 1
    raise CodecError("not a scalar the template reads")


class DictTemplate:
    """The canonical encoding of every dict whose key set is *keys*: the
    entry order and the encoded keys are worked out once, then only the
    values are written or read."""

    def __init__(self, keys: tuple[Hashable, ...]) -> None:
        entries = sorted(((encode(key), key) for key in keys), key=lambda e: e[0])
        self._keys = tuple(key for _, key in entries)
        self._encoded_keys = tuple(encoded for encoded, _ in entries)
        self._head = dict_header(len(keys))

    def encode_into(self, mapping: dict, out: bytearray) -> bool:
        """Append ``encode(mapping)`` to *out*; False, with nothing
        appended, when *mapping* has another key set."""
        if len(mapping) != len(self._keys):
            return False
        try:
            values = [mapping[key] for key in self._keys]
        except KeyError:
            return False
        out += self._head
        for encoded_key, value in zip(self._encoded_keys, values):
            out += encoded_key
            kind = type(value)
            if kind is float:
                out += _TAGGED_F64.pack(_TAG_FLOAT, value)
            elif kind is str:
                raw = value.encode("utf-8")
                out += _TAGGED_U32.pack(_TAG_STR, len(raw))
                out += raw
            else:
                _encode_into(value, out)
        return True

    def decode_from(self, data: bytes, pos: int, end: int) -> tuple[dict, int]:
        """Decode the dict at ``data[pos:end]`` when it is this key set
        in canonical order over scalar values; :class:`CodecError`
        otherwise."""
        if not data.startswith(self._head, pos):
            raise CodecError("another shape than the template's")
        pos += len(self._head)
        result = {}
        for key, encoded_key in zip(self._keys, self._encoded_keys):
            if not data.startswith(encoded_key, pos):
                raise CodecError("another key than the template's")
            result[key], pos = read_scalar(data, pos + len(encoded_key), end)
        return result, pos


@functools.lru_cache(maxsize=64)
def template_for(keys: tuple[Hashable, ...]) -> DictTemplate:
    """The template of the key set *keys* (a dict's keys, in any order)."""
    return DictTemplate(keys)
