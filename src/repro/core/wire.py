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

from typing import Any, Iterable, Sequence

from repro.core.codec import (
    CodecError,
    DictTemplate,
    decode,
    dict_header,
    encode,
    list_header,
    read_scalar,
    template_for,
)
from repro.core.messages import TupleContent
from repro.exceptions import ProtocolError

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

_FRAME_TUPLE = "t"
_FRAME_PARTIAL = "p"

# ``encode([_FRAME_TUPLE, {"kind": kind, "row": row}])`` is
# _TUPLE_HEAD + encode(row) + _TUPLE_MID + encode(kind): dict entries
# sort by encoded key, and encode("row") < encode("kind") (shorter).
_TUPLE_HEAD = list_header(2) + encode(_FRAME_TUPLE) + dict_header(2) + encode("row")
_TUPLE_MID = encode("kind")
_ENCODED_KINDS = {
    kind: encode(kind)
    for kind in (TupleContent.KIND_DATA, TupleContent.KIND_DUMMY, TupleContent.KIND_FAKE)
}


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


def encode_tuple_frames(
    contents: Iterable[TupleContent], quantum: int = TUPLE_FRAME_QUANTUM
) -> list[bytes]:
    """Serialize tuple contents, each padded to the tuple-frame quantum.

    Byte for byte ``_pad(encode([_FRAME_TUPLE, content.to_portable()]))``,
    but rows that share a key set — the rows of one contribution do —
    share one :class:`~repro.core.codec.DictTemplate`, so only their
    values are encoded per row."""
    frames: list[bytes] = []
    template: DictTemplate | None = None
    for content in contents:
        row = content.row
        if type(row) is not dict:
            frames.append(_pad(encode([_FRAME_TUPLE, content.to_portable()]), quantum))
            continue
        out = bytearray(4)  # the length prefix, known once the body is
        out += _TUPLE_HEAD
        if template is None or not template.encode_into(row, out):
            template = template_for(tuple(row))
            template.encode_into(row, out)
        out += _TUPLE_MID
        out += _ENCODED_KINDS.get(content.kind) or encode(content.kind)
        out[:4] = (len(out) - 4).to_bytes(4, "big")
        out += bytes(-len(out) % quantum)
        frames.append(bytes(out))
    return frames


def encode_tuple_frame(content: TupleContent, quantum: int = TUPLE_FRAME_QUANTUM) -> bytes:
    """Serialize one tuple content, padded to the tuple-frame quantum."""
    return encode_tuple_frames((content,), quantum)[0]


def encode_partial_frame(portable: list[Any], quantum: int = SIZE_QUANTUM) -> bytes:
    """Serialize one partial-aggregation portable structure, padded."""
    return _pad(encode([_FRAME_PARTIAL, portable]), quantum)


def decode_frames(plaintexts: Sequence[bytes]) -> list[tuple[str, Any]]:
    """Decode frames into ``("tuple", TupleContent)`` or
    ``("partial", portable)`` pairs.

    Every malformation — truncated or oversized length prefixes, codec
    corruption, invalid UTF-8, structurally wrong bodies, unknown frame
    kinds — surfaces as :class:`ProtocolError`; nothing from the byte
    level (``IndexError``, ``UnicodeDecodeError``, ``TypeError``...) may
    cross this boundary, because frames arrive from the network.

    The generic decoder judges every frame that is not, byte for byte,
    a canonical tuple frame over the key set of the tuple frame before
    it (so the first one, partial frames, and all malformed ones); the
    tuple frames of one partition, which are, have their values read in
    place."""
    decoded: list[tuple[str, Any]] = []
    template: DictTemplate | None = None
    for data in plaintexts:
        content = None if template is None else _read_tuple_frame(data, template)
        if content is not None:
            decoded.append(("tuple", content))
            continue
        kind, body = _decode_any_frame(data)
        if kind == "tuple":
            template = template_for(tuple(body.row))
        decoded.append((kind, body))
    return decoded


def decode_frame(data: bytes) -> tuple[str, Any]:
    """Decode one frame (see :func:`decode_frames`)."""
    return decode_frames((data,))[0]


def _read_tuple_frame(data: bytes, template: DictTemplate) -> TupleContent | None:
    """The content of *data* when it is a well-formed tuple frame of
    *template*'s shape, None for anything else."""
    size = len(data)
    if size < 4:
        return None
    length = int.from_bytes(data[:4], "big")
    end = 4 + length
    if (
        length > MAX_INNER_LENGTH
        or end > size
        or data.count(0, end) != size - end
        or not data.startswith(_TUPLE_HEAD, 4)
    ):
        return None
    try:
        row, pos = template.decode_from(data, 4 + len(_TUPLE_HEAD), end)
        if not data.startswith(_TUPLE_MID, pos):
            return None
        kind, pos = read_scalar(data, pos + len(_TUPLE_MID), end)
    except (CodecError, UnicodeDecodeError):
        return None
    if pos != end:
        return None
    return TupleContent(kind, row)


def _decode_any_frame(data: bytes) -> tuple[str, Any]:
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
