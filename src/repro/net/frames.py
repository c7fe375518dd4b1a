"""Wire framing for the repro network runtime.

Every message on the wire is one *frame*::

    +----------------+---------+----------+--------------+------------+---------+
    | length (u32 BE)| version | msg type | corr id (u32)| extensions | payload |
    +----------------+---------+----------+--------------+------------+---------+
          4 bytes      1 byte    1 byte       4 bytes      >= 1 byte

``length`` covers everything after itself and is capped by
:data:`MAX_FRAME_BYTES` — a peer declaring more is cut off before a
single payload byte is read.  There is one protocol version: a frame
whose version byte is not :data:`PROTOCOL_VERSION` is refused with
``ERR_UNSUPPORTED_VERSION``.  The *correlation id* lets one connection
carry a window of concurrent requests: a response echoes the id of the
request it answers, so the transport routes it to the right waiter
regardless of completion order.  The id is routing state only — retried
requests carry fresh ids while their idempotency key (the payload-level
client-id + sequence) stays fixed.  The *extension block* is a u8 count,
then per extension u8 type + u16 BE length + bytes — a single ``0`` byte
on most frames.

The payload encoding is a small hand-rolled struct layer (*not*
:mod:`repro.core.codec`: that codec can express plaintext rows, and this
module sits on the SSI side of the trust boundary — messages here carry
only what the SSI may legitimately see: query envelopes, opaque
ciphertext blobs and partition/query ids).  This module holds the frame
layer and the field codecs; which fields each operation carries is
declared once, in :mod:`repro.net.ops`.

All malformed input raises :class:`~repro.exceptions.ProtocolError`.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter
from typing import Mapping

from repro.core.messages import (  # noqa: F401 - re-exports the WORK_*/RESULT_* kinds
    RESULT_PARTIALS,
    RESULT_ROWS,
    WORK_FILTER,
    WORK_FINALIZE,
    WORK_FOLD,
    WORK_FOLD_PER_GROUP,
    Credential,
    EncryptedTupleBlock,
    QueryEnvelope,
    QueryResult,
)
from repro.exceptions import (
    AdmissionError,
    DuplicateQueryError,
    FrameTooLargeError,
    ProtocolError,
    ResultNotReadyError,
    UnknownQueryError,
    UnsupportedVersionError,
)

#: the one protocol version this build encodes and accepts; bumped on
#: incompatible changes (v2: mutating requests carry a client-id +
#: sequence idempotency key; v3: frames carry a correlation id for
#: pipelined RPC, and tuples may travel as columnar
#: MSG_SUBMIT_TUPLES_BATCH blocks; v4: an extension block follows the
#: fixed header — trace context, durable commitments — plus
#: MSG_GET_STATS)
PROTOCOL_VERSION = 4

#: bytes of the length prefix preceding every frame body
LENGTH_PREFIX_BYTES = 4

#: fixed body header: version (1) + msg type (1) + correlation id (4).
#: The extension block sits between this header and the payload, so the
#: correlation id stays at a fixed offset for response routing and the
#: transport's in-place corr-id rewrite.
BODY_HEADER_BYTES = 6

#: the smallest well-formed frame on the wire (prefix + body header)
MIN_FRAME_BYTES = LENGTH_PREFIX_BYTES + BODY_HEADER_BYTES

#: correlation ids are u32; 0 is reserved for unsolicited/connection-
#: scoped frames (e.g. a framing error answered before the id is known)
MAX_CORRELATION_ID = 0xFFFFFFFF

#: hard ceiling on one frame (version + type + corr id + payload)
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: ceiling on any single variable-length field inside a payload
MAX_FIELD_BYTES = MAX_FRAME_BYTES

#: ceiling on item counts (tuples / partials / rows per message)
MAX_ITEMS = 1_000_000

# --------------------------------------------------------------------- #
# message types
# --------------------------------------------------------------------- #
# Retired opcodes, answered ERR_UNKNOWN_OP and never reused: 0x03, 0x06,
# 0x08-0x0E and 0x10 were the SSI's own steps and the one-shot probes as
# remote procedures (gone with the client-side coordinator); 0x04 was the
# per-item tuple submission, 0x0F the one-shot result read (await_result
# with a zero hold) and 0x15 MSG_HELLO, a capability report nobody read.
MSG_POST_QUERY = 0x01
MSG_FETCH_QUERY = 0x02
MSG_COLLECTED_COUNT = 0x05
MSG_CLOSE_COLLECTION = 0x07
MSG_SUBMIT_PARTITION_RESULT = 0x11
MSG_PING = 0x12
MSG_SUBMIT_TUPLES_BATCH = 0x13
MSG_GET_STATS = 0x14
MSG_GET_COMMITMENT = 0x16
MSG_GET_HEALTH = 0x17
#: long polls: the server parks the request until it has an answer or
#: the hold the request names expires (see repro.net.server)
MSG_AWAIT_WORK = 0x18
MSG_AWAIT_RESULT = 0x19

MSG_OK = 0x40
MSG_ERROR = 0x41

# --------------------------------------------------------------------- #
# frame extensions
# --------------------------------------------------------------------- #
#: extension carrying a 16-byte trace context (u64 trace id + u64 span
#: id, big-endian); see repro.obs.spans.TraceContext
EXT_TRACE = 0x01

#: extension on MSG_OK acks from a durable server: the commitment-chain
#: position the acked mutation is covered by (u64 record count + 32-byte
#: blake2b chain head; see repro.store.commitment.Commitment.to_wire)
EXT_COMMITMENT = 0x02

#: ceiling on extensions per frame (a routing header, not a data lane)
MAX_EXTENSIONS = 8

# --------------------------------------------------------------------- #
# wire-level error codes (satellite: typed errors, no tracebacks)
# --------------------------------------------------------------------- #
ERR_MALFORMED = 1
ERR_UNSUPPORTED_VERSION = 2
ERR_UNKNOWN_OP = 3
ERR_DUPLICATE_QUERY = 4
ERR_UNKNOWN_QUERY = 5
ERR_RESULT_NOT_READY = 6
# 7 was ERR_BACKPRESSURE (retired with the submission queues; never reused)
ERR_TOO_LARGE = 8
ERR_INTERNAL = 9
#: a per-querier admission quota (active queries / in-flight bytes) was
#: exhausted; the error payload carries a retry-after hint (f64 seconds)
ERR_ADMISSION = 10

#: the typed errors: the exception the SSI side raises travels as its
#: code, and the client raises the same type again — callers cannot tell
#: a remote SSI from a local one by its failures
ERROR_TYPES: dict[int, type[ProtocolError]] = {
    ERR_UNSUPPORTED_VERSION: UnsupportedVersionError,
    ERR_DUPLICATE_QUERY: DuplicateQueryError,
    ERR_UNKNOWN_QUERY: UnknownQueryError,
    ERR_RESULT_NOT_READY: ResultNotReadyError,
    ERR_ADMISSION: AdmissionError,
}

# work-unit kinds (WORK_*) and partition-result kinds (RESULT_*) travel as
# u8 and are declared beside Partition in repro.core.messages, where the
# TDS that serves them can name them without importing the wire layer

#: the kind byte heading each item of a per-item list: the collected
#: tuples of the read-only record 2, and the partials a TDS sends back
ITEM_TUPLE = 0
ITEM_PARTIAL = 1
_ITEM_NAMES = {ITEM_TUPLE: "tuple", ITEM_PARTIAL: "partial"}


# --------------------------------------------------------------------- #
# the protocol table
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Param:
    """A numeric knob a protocol row declares: its default (``None``:
    the engine's own configured value) and the range ``[low, high]`` a
    value must lie in — ``low`` itself excluded when ``above``."""

    default: float | None
    low: float
    high: float = math.inf
    above: bool = False

    def check(self, name: str, value: float) -> None:
        in_range = (value > self.low if self.above else value >= self.low) and (
            value <= self.high
        )
        if not (math.isfinite(value) and in_range):
            bound = f"{'>' if self.above else '>='} {self.low:g}"
            if math.isfinite(self.high):
                bound += f" and <= {self.high:g}"
            raise ProtocolError(f"param {name} must be finite and {bound}, got {value!r}")


@dataclass(frozen=True)
class Stage:
    """One step of a protocol, as the SSI runs it.

    ``kind`` is what a TDS does with a partition; ``by_tag`` cuts
    partitions by cleartext group tag (else shuffled, blind chunks);
    ``size_param`` names the row's param sizing a partition (``None``, or
    a value of 0, leaves a tag group — or the whole input — unsplit); a
    stage that ``repeats`` runs again on its own output until one item is
    left."""

    kind: int
    by_tag: bool
    size_param: str | None
    repeats: bool = False


@dataclass(frozen=True)
class ProtocolRow:
    """A protocol: its stages after collection and the params they (and
    the devices collecting for it) read."""

    stages: tuple[Stage, ...]
    params: Mapping[str, Param]


#: optimal S_Agg reduction factor derived in §6.1.1 (dTQ/dα = 0 → α ≈ 3.6)
ALPHA_OPTIMAL = 3.6

_PARTITION_ITEMS = 64
#: items per partition: at least one
_SIZE = Param(_PARTITION_ITEMS, 1)


def _row(*stages: Stage, **params: Param) -> ProtocolRow:
    # every row's partitions time out and are reassigned (§3.2)
    return ProtocolRow(stages, {**params, "partition_timeout": Param(None, 0.0, above=True)})


_FINALIZE = Stage(WORK_FINALIZE, False, "filter_partition_size")
#: §4.3/§4.4: fold same-tag tuples to per-group partials, merge same-group
#: partials (one partition per Det_Enc(group) tag), finalize
_TAGGED = (
    Stage(WORK_FOLD_PER_GROUP, True, "first_step_partition_size"),
    Stage(WORK_FOLD_PER_GROUP, True, None),
    _FINALIZE,
)
_TAGGED_PARAMS = {
    # 0 leaves a tag group unsplit
    "first_step_partition_size": Param(_PARTITION_ITEMS, 0),
    "filter_partition_size": _SIZE,
}

#: protocol name → its row: the one description of a protocol, read by
#: the SSI's coordinator, the in-process driver and the collecting device
PROTOCOLS: dict[str, ProtocolRow] = {
    # §3.2: no aggregation, the Covering Result is filtered in blind chunks
    "basic": _row(
        Stage(WORK_FILTER, False, "partition_size"),
        partition_size=_SIZE,
    ),
    # §4.2: blind partitions of ~alpha items shrink the input by alpha per
    # round until one partial holds it all; below 2 it never converges
    "s_agg": _row(
        Stage(WORK_FOLD, False, "alpha", repeats=True),
        _FINALIZE,
        alpha=Param(ALPHA_OPTIMAL, 2),
        filter_partition_size=_SIZE,
    ),
    # §4.3: nf random fakes per true tuple; one tuple's fakes fit a block
    "rnf_noise": _row(*_TAGGED, **_TAGGED_PARAMS, nf=Param(2, 0, MAX_ITEMS - 1)),
    "c_noise": _row(*_TAGGED, **_TAGGED_PARAMS),
    "ed_hist": _row(*_TAGGED, **_TAGGED_PARAMS),
}

#: protocols the coordinator knows how to schedule
SUPPORTED_PROTOCOLS = tuple(PROTOCOLS)


@dataclass(frozen=True)
class QueryMeta:
    """Cleartext scheduling metadata riding next to an envelope.

    ``protocol`` names the protocol *shape* so the SSI knows how to
    partition (randomly vs. by tag) — information the paper's SSI holds
    anyway (it executes steps 5/9).  ``params`` are numeric knobs of its
    :data:`PROTOCOLS` row (reduction factor, partition sizes, timeouts,
    fakes per tuple); never query content."""

    protocol: str = ""
    params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        # Accept a {key: value} mapping for convenience; store pairs.
        if isinstance(self.params, dict):
            object.__setattr__(
                self,
                "params",
                tuple((str(k), float(v)) for k, v in self.params.items()),
            )

    def param(self, key: str, default: float | None = None) -> float:
        """The value of *key*: as set, else *default*, else the row's."""
        for name, value in self.params:
            if name == key:
                return value
        if default is None:
            default = PROTOCOLS[self.protocol].params[key].default
        if default is None:
            raise ProtocolError(f"param {key} has no default: the engine supplies one")
        return default

    def check(self) -> None:
        """Refuse what no engine may run: a protocol without a row, or a
        param the row declares set non-finite or out of its range.  An
        empty meta (collected, never scheduled) passes."""
        if not self.protocol:
            return
        row = PROTOCOLS.get(self.protocol)
        if row is None:
            raise ProtocolError(
                f"no coordinator for protocol {self.protocol!r}; supported: "
                f"{', '.join(PROTOCOLS)}"
            )
        for name, value in self.params:
            declared = row.params.get(name)
            if declared is not None:
                declared.check(name, value)


@dataclass(frozen=True)
class WorkUnit:
    """One partition of work handed to a waiting TDS: the partition's
    block, untagged (a TDS never reads a tag)."""

    query_id: str
    kind: int
    partition_id: int
    block: EncryptedTupleBlock


# --------------------------------------------------------------------- #
# primitive writer / reader
# --------------------------------------------------------------------- #
class Writer:
    """Append-only struct writer over a bytearray."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def u8(self, value: int) -> "Writer":
        self._buf += struct.pack(">B", value)
        return self

    def u32(self, value: int) -> "Writer":
        self._buf += struct.pack(">I", value)
        return self

    def i64(self, value: int) -> "Writer":
        self._buf += struct.pack(">q", value)
        return self

    def f64(self, value: float) -> "Writer":
        self._buf += struct.pack(">d", value)
        return self

    def boolean(self, value: bool) -> "Writer":
        return self.u8(1 if value else 0)

    def blob(self, value: bytes) -> "Writer":
        if len(value) > MAX_FIELD_BYTES:
            raise ProtocolError(f"field of {len(value)} bytes exceeds the frame limit")
        self.u32(len(value))
        self._buf += value
        return self

    def text(self, value: str) -> "Writer":
        return self.blob(value.encode("utf-8"))

    def opt_blob(self, value: bytes | None) -> "Writer":
        if value is None:
            return self.boolean(False)
        self.boolean(True)
        return self.blob(value)

    def opt_text(self, value: str | None) -> "Writer":
        if value is None:
            return self.boolean(False)
        self.boolean(True)
        return self.text(value)

    def getvalue(self) -> bytes:
        return bytes(self._buf)


_U32 = struct.Struct(">I").unpack_from
_I64 = struct.Struct(">q").unpack_from
_F64 = struct.Struct(">d").unpack_from


class Reader:
    """Bounds-checked cursor over a received payload; every violation is a
    :class:`ProtocolError`, never an ``IndexError``/``struct.error``.

    Scalars are read in place (a ``u8`` by index, wider fields through a
    precompiled ``unpack_from``); only a blob is sliced out, once."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def _advance(self, n: int) -> int:
        """Consume *n* bytes; returns the position they start at."""
        pos = self._pos
        if n < 0 or pos + n > len(self._data):
            raise ProtocolError("truncated message payload")
        self._pos = pos + n
        return pos

    def mark(self) -> int:
        """Current cursor position, for :meth:`since`."""
        return self._pos

    def since(self, mark: int) -> memoryview:
        """The raw bytes consumed since *mark*, as a zero-copy view.
        Lets a handler keep the wire encoding of a span it just decoded
        (the codec is canonical, so these bytes equal a re-encode)
        without paying for a copy; the view pins the request buffer,
        which is immutable for the life of the dispatch."""
        return memoryview(self._data)[mark : self._pos]

    def u8(self) -> int:
        return self._data[self._advance(1)]

    def u32(self) -> int:
        return _U32(self._data, self._advance(4))[0]

    def i64(self) -> int:
        return _I64(self._data, self._advance(8))[0]

    def f64(self) -> float:
        return _F64(self._data, self._advance(8))[0]

    def boolean(self) -> bool:
        flag = self.u8()
        if flag not in (0, 1):
            raise ProtocolError(f"invalid boolean byte 0x{flag:02x}")
        return flag == 1

    def blob(self) -> bytes:
        length = self.u32()
        if length > MAX_FIELD_BYTES:
            raise ProtocolError(
                f"field declares {length} bytes, above the frame limit"
            )
        pos = self._advance(length)
        return self._data[pos : pos + length]

    def text(self) -> str:
        raw = self.blob()
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise ProtocolError("text field is not valid UTF-8") from None

    def opt_blob(self) -> bytes | None:
        return self.blob() if self.boolean() else None

    def opt_text(self) -> str | None:
        return self.text() if self.boolean() else None

    def count(self, limit: int = MAX_ITEMS) -> int:
        value = self.u32()
        if value > limit:
            raise ProtocolError(f"count {value} exceeds the limit of {limit}")
        return value

    def remaining(self) -> int:
        """Bytes not yet consumed — lets a decoder probe for optional
        trailing fields (e.g. the retry-after hint on ERR_ADMISSION)."""
        return len(self._data) - self._pos

    def expect_end(self) -> None:
        if self._pos != len(self._data):
            raise ProtocolError(
                f"{len(self._data) - self._pos} trailing bytes after payload"
            )


# --------------------------------------------------------------------- #
# frame layer
# --------------------------------------------------------------------- #
def pack_frame(
    msg_type: int,
    payload: bytes,
    correlation_id: int = 0,
    extensions: tuple[tuple[int, bytes], ...] | list[tuple[int, bytes]] = (),
) -> bytes:
    """Length-prefixed frame: header + version + type + corr id +
    extension block + payload.

    ``extensions`` is a sequence of ``(ext_type, raw_bytes)`` pairs.
    """
    if not 0 <= correlation_id <= MAX_CORRELATION_ID:
        raise ProtocolError(f"correlation id {correlation_id} out of range")
    if len(extensions) > MAX_EXTENSIONS:
        raise ProtocolError(
            f"{len(extensions)} extensions exceed the per-frame limit"
        )
    parts = [struct.pack(">B", len(extensions))]
    for ext_type, raw in extensions:
        if not 0 <= ext_type <= 0xFF:
            raise ProtocolError(f"extension type {ext_type} out of range")
        if len(raw) > 0xFFFF:
            raise ProtocolError(
                f"extension of {len(raw)} bytes exceeds the u16 limit"
            )
        parts.append(struct.pack(">BH", ext_type, len(raw)))
        parts.append(raw)
    ext_block = b"".join(parts)
    body_len = BODY_HEADER_BYTES + len(ext_block) + len(payload)
    if body_len > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {body_len} bytes exceeds MAX_FRAME_BYTES")
    return (
        struct.pack(">IBBI", body_len, PROTOCOL_VERSION, msg_type, correlation_id)
        + ext_block
        + payload
    )


#: Shared read-only dict returned for frames with no extension block —
#: the overwhelmingly common case; never mutate it.
_NO_EXTENSIONS: dict[int, bytes] = {}


def unpack_frame_ext(
    body: bytes,
) -> tuple[int, int, dict[int, bytes], Reader]:
    """Split a frame body into (msg_type, correlation_id, extensions,
    payload reader).  A version byte other than
    :data:`PROTOCOL_VERSION` raises :class:`UnsupportedVersionError`.

    Unknown extension types are length-validated and ignored (carried in
    the returned dict for the caller to consult); a duplicated extension
    type keeps the first occurrence.
    """
    if len(body) < 2:
        raise ProtocolError("frame body shorter than its fixed header")
    version, msg_type = body[0], body[1]
    if version != PROTOCOL_VERSION:
        raise UnsupportedVersionError(
            f"unsupported protocol version {version} (speaking "
            f"{PROTOCOL_VERSION})",
        )
    if len(body) < BODY_HEADER_BYTES:
        raise ProtocolError("frame body shorter than its fixed header")
    correlation_id = int.from_bytes(body[2:BODY_HEADER_BYTES], "big")
    pos = BODY_HEADER_BYTES
    extensions = _NO_EXTENSIONS
    if len(body) < pos + 1:
        raise ProtocolError("frame body missing its extension count")
    ext_count = body[pos]
    pos += 1
    if ext_count:
        extensions = {}
    if ext_count > MAX_EXTENSIONS:
        raise ProtocolError(
            f"{ext_count} extensions exceed the per-frame limit"
        )
    for _ in range(ext_count):
        if len(body) < pos + 3:
            raise ProtocolError("truncated frame extension header")
        ext_type = body[pos]
        ext_len = int.from_bytes(body[pos + 1 : pos + 3], "big")
        pos += 3
        if len(body) < pos + ext_len:
            raise ProtocolError("truncated frame extension body")
        extensions.setdefault(ext_type, bytes(body[pos : pos + ext_len]))
        pos += ext_len
    return msg_type, correlation_id, extensions, Reader(body[pos:])


def peek_correlation_id(body: bytes) -> int:
    """Read a frame body's correlation id without decoding the payload —
    the transport's response-routing fast path.  Returns 0 (the
    connection-scoped id) for bodies too short to carry one."""
    if len(body) < BODY_HEADER_BYTES:
        return 0
    return int.from_bytes(body[2:BODY_HEADER_BYTES], "big")


class FrameCutter:
    """Cuts frame bodies out of the bytes a connection has received.

    Both ends of the wire feed their protocol's ``data_received`` chunks
    in and take complete bodies out, so the length-prefix checks live
    here once.  A prefix is judged the moment its four bytes are in —
    before any of its body is waited for: :class:`FrameTooLargeError`
    above *max_bytes*, :class:`ProtocolError` below the fixed body
    header.  After either the stream position cannot be trusted and the
    caller hangs up.  A trailing partial frame stays in the buffer."""

    __slots__ = ("_buffer", "_max_bytes")

    def __init__(self, max_bytes: int = MAX_FRAME_BYTES) -> None:
        self._buffer = bytearray()
        self._max_bytes = max_bytes

    def feed(self, data: bytes) -> None:
        self._buffer += data

    def cut(self) -> bytes | None:
        """The next complete frame body, or None while the buffer holds
        less than one."""
        buffer = self._buffer
        if len(buffer) < LENGTH_PREFIX_BYTES:
            return None
        (body_len,) = struct.unpack_from(">I", buffer)
        if body_len > self._max_bytes:
            raise FrameTooLargeError(
                f"peer declared a {body_len}-byte frame, above the "
                f"{self._max_bytes}-byte limit"
            )
        if body_len < BODY_HEADER_BYTES:
            raise ProtocolError("peer declared a frame too short for its header")
        end = LENGTH_PREFIX_BYTES + body_len
        if len(buffer) < end:
            return None
        with memoryview(buffer) as view:  # one copy, released before the resize
            body = bytes(view[LENGTH_PREFIX_BYTES:end])
        del buffer[:end]
        return body


# --------------------------------------------------------------------- #
# composite field encodings
# --------------------------------------------------------------------- #
def write_envelope(w: Writer, envelope: QueryEnvelope) -> None:
    w.text(envelope.query_id)
    w.blob(envelope.encrypted_query)
    w.text(envelope.credential.subject)
    roles = sorted(envelope.credential.roles)
    w.u32(len(roles))
    for role in roles:
        w.text(role)
    w.blob(envelope.credential.signature)
    if envelope.size_tuples is None:
        w.boolean(False)
    else:
        w.boolean(True)
        w.i64(envelope.size_tuples)
    if envelope.size_seconds is None:
        w.boolean(False)
    else:
        w.boolean(True)
        w.f64(envelope.size_seconds)


def read_envelope(r: Reader) -> QueryEnvelope:
    query_id = r.text()
    encrypted_query = r.blob()
    subject = r.text()
    roles = frozenset(r.text() for _ in range(r.count(limit=1024)))
    signature = r.blob()
    size_tuples = r.i64() if r.boolean() else None
    size_seconds = r.f64() if r.boolean() else None
    return QueryEnvelope(
        query_id=query_id,
        encrypted_query=encrypted_query,
        credential=Credential(subject, roles, signature),
        size_tuples=size_tuples,
        size_seconds=size_seconds,
    )


def write_meta(w: Writer, meta: QueryMeta) -> None:
    w.text(meta.protocol)
    w.u32(len(meta.params))
    for key, value in meta.params:
        w.text(key)
        w.f64(value)


def read_meta(r: Reader) -> QueryMeta:
    protocol = r.text()
    params = tuple(
        (r.text(), r.f64()) for _ in range(r.count(limit=256))
    )
    return QueryMeta(protocol=protocol, params=params)


def write_item_block(w: Writer, block: EncryptedTupleBlock, kind: int) -> None:
    """*block* laid out per item: a count, then per item the *kind*
    byte, a payload blob and an optional tag — the layout partials
    travel and rest in (request, record 4, snapshot partials)."""
    if len(block) > MAX_ITEMS:
        raise ProtocolError(f"{len(block)} items exceed the per-message limit")
    w.u32(len(block))
    payloads, offsets = block.payloads, block.offsets
    for i, tag in enumerate(block.tags):
        w.u8(kind)
        w.blob(payloads[offsets[i] : offsets[i + 1]])
        w.opt_blob(tag)


def read_item_block(r: Reader, kind: int) -> EncryptedTupleBlock:
    """Read what :func:`write_item_block` wrote into one block; an item
    of any kind but *kind* is a :class:`ProtocolError`."""
    payloads: list[bytes] = []
    tags: list[bytes | None] = []
    for _ in range(r.count()):
        item_kind = r.u8()
        if item_kind != kind:
            raise ProtocolError(
                f"expected {_ITEM_NAMES[kind]} items, got item kind 0x{item_kind:02x}"
            )
        payloads.append(r.blob())
        tags.append(r.opt_blob())
    return EncryptedTupleBlock.joined(payloads, tags)


def write_rows(w: Writer, block: EncryptedTupleBlock) -> None:
    """Result rows: a count, then one blob per row (rows are untagged)."""
    if len(block) > MAX_ITEMS:
        raise ProtocolError(f"{len(block)} rows exceed the per-message limit")
    w.u32(len(block))
    payloads, offsets = block.payloads, block.offsets
    for i in range(len(block)):
        w.blob(payloads[offsets[i] : offsets[i + 1]])


def read_rows(r: Reader) -> EncryptedTupleBlock:
    rows = [r.blob() for _ in range(r.count())]
    return EncryptedTupleBlock.joined(rows, (None,) * len(rows))


def write_work_unit(w: Writer, unit: WorkUnit) -> None:
    """A partition as the block it is: query id, kind, partition id,
    then a count, one u32 lengths vector and one payload buffer.  No
    per-item kind byte (the TDS reads tuple vs. partial off the frame
    inside the plaintext) and no tags (it never reads them)."""
    w.text(unit.query_id)
    w.u8(unit.kind)
    w.i64(unit.partition_id)
    _write_lengths(w, unit.block.offsets)
    w.blob(unit.block.payloads)


def read_work_unit(r: Reader) -> WorkUnit:
    query_id = r.text()
    kind = r.u8()
    if kind not in (WORK_FOLD, WORK_FOLD_PER_GROUP, WORK_FINALIZE, WORK_FILTER):
        raise ProtocolError(f"unknown work-unit kind 0x{kind:02x}")
    partition_id = r.i64()
    lengths = _read_lengths(r)
    payloads = r.blob()
    block = EncryptedTupleBlock(
        payloads=payloads,
        offsets=_offsets_spanning(lengths, payloads),
        tags=(None,) * len(lengths),
    )
    return WorkUnit(query_id, kind, partition_id, block)


def write_result(w: Writer, result: QueryResult) -> None:
    w.text(result.query_id)
    write_rows(w, result.block)


def read_result(r: Reader) -> QueryResult:
    query_id = r.text()
    return QueryResult(query_id, read_rows(r))


# --------------------------------------------------------------------- #
# columnar blocks: contributions in, partitions out
# --------------------------------------------------------------------- #
#: tag-length sentinel marking "no group tag" in the tag-lengths vector
_NO_TAG = 0xFFFFFFFF
_FIRST = itemgetter(0)


def _write_lengths(w: Writer, offsets: tuple[int, ...]) -> None:
    """The item count and the u32 lengths vector of the items *offsets*
    bounds — the head every columnar block on the wire opens with."""
    count = len(offsets) - 1
    if count > MAX_ITEMS:
        raise ProtocolError(f"{count} items exceed the per-message limit")
    w.u32(count)
    w.blob(
        struct.pack(
            f">{count}I", *[offsets[i + 1] - offsets[i] for i in range(count)]
        )
    )


def _read_u32_vector(r: Reader, count: int, what: str) -> tuple[int, ...]:
    raw = r.blob()
    if len(raw) != 4 * count:
        raise ProtocolError(
            f"{what} vector of {len(raw)} bytes does not match {count} items"
        )
    return struct.unpack(f">{count}I", raw)


def _read_lengths(r: Reader) -> tuple[int, ...]:
    """Read what :func:`_write_lengths` wrote: a count within
    :data:`MAX_ITEMS` and a lengths vector of exactly that many u32s."""
    return _read_u32_vector(r, r.count(), "lengths")


def _offsets_spanning(lengths: tuple[int, ...], payloads: bytes) -> tuple[int, ...]:
    """The offsets table of *lengths*, which must sum exactly to the
    payload buffer."""
    offsets = tuple(accumulate(lengths, initial=0))
    if offsets[-1] != len(payloads):
        raise ProtocolError(
            f"payload buffer of {len(payloads)} bytes does not match the "
            f"declared {offsets[-1]}"
        )
    return offsets


def write_tuple_block(w: Writer, block: EncryptedTupleBlock) -> None:
    """Columnar encoding of a tuple batch: one lengths vector, one tag-
    lengths vector (``0xFFFFFFFF`` = no tag), one payload buffer and one
    tag buffer — four blobs total, independent of the tuple count."""
    _write_lengths(w, block.offsets)
    tag_lengths = [
        _NO_TAG if tag is None else len(tag) for tag in block.tags
    ]
    w.blob(struct.pack(f">{len(tag_lengths)}I", *tag_lengths))
    w.blob(block.payloads)
    w.blob(b"".join(tag for tag in block.tags if tag is not None))


def read_tuple_block(r: Reader) -> EncryptedTupleBlock:
    """Decode a columnar tuple batch.  The payload buffer is kept whole
    (no per-tuple copies); the tag column is checked in two C-level
    passes and cut out of the tag buffer in one more, in C when every
    tag has one width."""
    lengths = _read_lengths(r)
    count = len(lengths)
    tag_lengths = _read_u32_vector(r, count, "tag-lengths")
    payloads = r.blob()
    tags_raw = r.blob()
    offsets = _offsets_spanning(lengths, payloads)
    untagged = tag_lengths.count(_NO_TAG)
    declared = sum(tag_lengths) - untagged * _NO_TAG
    if declared > len(tags_raw):
        raise ProtocolError("tag buffer shorter than its declared lengths")
    if declared != len(tags_raw):
        raise ProtocolError(
            f"{len(tags_raw) - declared} trailing bytes in the tag buffer"
        )
    if untagged == count:
        tags: tuple[bytes | None, ...] = (None,) * count
    elif tag_lengths.count(width := tag_lengths[0]) == count:
        # one width (a bucket hash, a Det_Enc of one size): cut in C; a
        # struct of zero bytes cannot iterate, and needs no cutting
        tags = (
            tuple(map(_FIRST, struct.iter_unpack(f"{width}s", tags_raw)))
            if width
            else (b"",) * count
        )
    else:
        # n % _NO_TAG is n for a tag and 0 for the sentinel
        ends = accumulate(map(_NO_TAG.__rmod__, tag_lengths))
        tags = tuple(
            [
                None if n == _NO_TAG else tags_raw[end - n : end]
                for n, end in zip(tag_lengths, ends)
            ]
        )
    return EncryptedTupleBlock(payloads=payloads, offsets=offsets, tags=tags)


def pack_error(
    code: int,
    message: str,
    correlation_id: int = 0,
    retry_after: float | None = None,
) -> bytes:
    w = Writer()
    w.u8(code)
    w.text(message)
    if retry_after is not None:
        # Optional trailing hint (currently only on ERR_ADMISSION).
        # Trailing-field extension is safe here: error payloads are the
        # one message clients never expect_end() on.
        w.f64(retry_after)
    return pack_frame(MSG_ERROR, w.getvalue(), correlation_id)
