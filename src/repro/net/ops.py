"""The SSI operation table: one row per operation, everything else derived.

The paper's SSI (§2.1, §3–§4) does about a dozen things — post/download
a query, store ciphertext, evaluate the cleartext SIZE clause, hand out
partitions, hold partials, publish the result.  Each is declared here
once, as an :class:`Op` row: its opcode, its metric-label name, the
fields of its request and response (codecs from :mod:`repro.net.frames`),
and the flags the layers around it act on.  From the rows are derived:

* :meth:`SSIDispatcher.dispatch <repro.net.server.SSIDispatcher.dispatch>`
  — decode the request fields, run the facade method or the named
  handler, encode the response field;
* the :class:`~repro.net.client.AsyncSSIClient` proxies;
* the WAL records of :mod:`repro.store.records` (a journaled row's
  record payload *is* its request fields) and their replay.

**To add an SSI operation, add a row** — plus a dispatcher handler only
when the operation is not "decode fields → call facade → encode result".

The rows with an opcode are the whole remote surface: what a TDS or a
querier may say to the SSI (paper §3.2 steps 1–4, 6–13).  What the SSI
does *itself* in between — keep partials, drain them into the next
round, store and publish the result rows — is journaled, not callable:
those rows have a record type and no opcode, and only the
:class:`~repro.net.coordinator.QueryCoordinator` beside the SSI runs
them, through the facade.

This module sits on the SSI side of the trust boundary with
:mod:`repro.net.frames`: rows name ciphertext blobs, ids and
paper-sanctioned cleartext, never plaintext rows or keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generic, Iterable, Sequence, TypeVar

from repro.core.messages import (
    EncryptedPartial,
    EncryptedTuple,
    EncryptedTupleBlock,
    QueryEnvelope,
    QueryResult,
)
from repro.exceptions import ProtocolError
from repro.net import frames
from repro.net.frames import QueryMeta, Reader, Writer

T = TypeVar("T")
R = TypeVar("R")

#: default of a request field the caller must supply
_REQUIRED: Any = object()


# --------------------------------------------------------------------- #
# fields
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Field(Generic[T]):
    """One named value of a request or response and its wire codec.
    ``default`` (request side) lets a client proxy omit the argument."""

    name: str
    write: Callable[[Writer, T], object]
    read: Callable[[Reader], T]
    default: Any = _REQUIRED


def _struct(name: str, *parts: Field[Any]) -> Field[Any]:
    """A fixed sequence of fields, carried as one tuple."""

    def write(w: Writer, values: Sequence[Any]) -> None:
        for part, value in zip(parts, values, strict=True):
            part.write(w, value)

    def read(r: Reader) -> tuple[Any, ...]:
        return tuple([part.read(r) for part in parts])

    return Field(name, write, read)


def _listing(name: str, item: Field[T], limit: int = frames.MAX_ITEMS) -> Field[list[T]]:
    """A u32 count followed by that many *item* fields."""

    def write(w: Writer, values: Sequence[T]) -> None:
        w.u32(len(values))
        for value in values:
            item.write(w, value)

    def read(r: Reader) -> list[T]:
        return [item.read(r) for _ in range(r.count(limit=limit))]

    return Field(name, write, read)


def _optional(name: str, inner: Field[T], default: Any = _REQUIRED) -> Field[T | None]:
    """A presence flag, then *inner* when set."""

    def write(w: Writer, value: T | None) -> None:
        if value is None:
            w.boolean(False)
        else:
            w.boolean(True)
            inner.write(w, value)

    def read(r: Reader) -> T | None:
        return inner.read(r) if r.boolean() else None

    return Field(name, write, read, default)


def _tagged(name: str, variants: dict[int, Field[Any]]) -> Field[tuple[int, Any]]:
    """A u8 tag, then the field that tag selects: ``(tag, value)``."""

    def variant(tag: int) -> Field[Any]:
        if tag not in variants:
            raise ProtocolError(f"unknown {name} 0x{tag:02x}")
        return variants[tag]

    def write(w: Writer, tagged: tuple[int, Any]) -> None:
        chosen = variant(tagged[0])
        w.u8(tagged[0])
        chosen.write(w, tagged[1])

    def read(r: Reader) -> tuple[int, Any]:
        tag = r.u8()
        return tag, variant(tag).read(r)

    return Field(name, write, read)


def _sequence(values: Iterable[T]) -> Sequence[T]:
    return values if isinstance(values, (list, tuple)) else list(values)


def _write_items(
    w: Writer, items: Iterable[EncryptedTuple] | Iterable[EncryptedPartial]
) -> None:
    frames.write_items(w, _sequence(items))  # type: ignore[arg-type]


def _write_rows(w: Writer, rows: Iterable[bytes]) -> None:
    frames.write_rows(w, _sequence(rows))  # type: ignore[arg-type]


def _write_block(
    w: Writer, tuples: Iterable[EncryptedTuple] | EncryptedTupleBlock
) -> None:
    if not isinstance(tuples, EncryptedTupleBlock):
        tuples = EncryptedTupleBlock.from_tuples(list(tuples))
    frames.write_tuple_block(w, tuples)


def _write_idem(w: Writer, key: tuple[str, int]) -> None:
    w.text(key[0])
    w.i64(key[1])


def _read_idem(r: Reader) -> tuple[str, int]:
    client_id = r.text()
    seq = r.i64()
    if seq < 1:
        raise ProtocolError(f"invalid idempotency sequence {seq}")
    return client_id, seq


def _write_meta(w: Writer, meta: QueryMeta | None) -> None:
    frames.write_meta(w, meta if meta is not None else QueryMeta())


# Scalars (named for what most rows use them as; inside a struct only
# the codec matters).
NOTHING: Field[None] = Field("nothing", lambda w, value: None, lambda r: None)
BOOL = Field("flag", Writer.boolean, Reader.boolean)
U8 = Field("byte", Writer.u8, Reader.u8)
I64 = Field("count", Writer.i64, Reader.i64)
F64 = Field("seconds", Writer.f64, Reader.f64)
TEXT = Field("text", Writer.text, Reader.text)
BLOB = Field("blob", Writer.blob, Reader.blob)
OPT_BLOB = Field("blob", Writer.opt_blob, Reader.opt_blob)

#: the per-client (id, sequence) key heading every idempotent request;
#: written out (not a _struct) because every mutating request pays for it
IDEM = Field("idem", _write_idem, _read_idem)
#: the same key as a WAL record carries it: present only on the records
#: of idempotent operations
RECORD_IDEM = _optional("idem", _struct("idem", TEXT, I64))
QUERY_ID = Field("query_id", Writer.text, Reader.text)
TDS_ID = Field("tds_id", Writer.text, Reader.text)
PERSONAL_TDS_ID = Field("tds_id", Writer.opt_text, Reader.opt_text, default=None)
PARTITION_ID = Field("partition_id", Writer.i64, Reader.i64)
ENVELOPE: Field[QueryEnvelope] = Field(
    "envelope", frames.write_envelope, frames.read_envelope
)
META: Field[QueryMeta] = Field("meta", _write_meta, frames.read_meta, default=None)
QUERY = _struct("query", ENVELOPE, META)
TUPLES = Field("tuples", _write_items, frames.read_tuples)
TUPLE_BLOCK = Field("tuples", _write_block, frames.read_tuple_block)
PARTIALS = Field("partials", _write_items, frames.read_partials)
ROWS = Field("rows", _write_rows, frames.read_rows)
RESULT: Field[QueryResult] = Field("result", frames.write_result, frames.read_result)
UNIT = Field("unit", frames.write_work_unit, frames.read_work_unit)
#: seconds the SSI may park a request it has no answer for; always the
#: last request field of a row whose handler parks
HOLD = Field("hold", Writer.f64, Reader.f64)
#: the query ids a device holds — ids the SSI itself served it
KNOWN = _listing("known", QUERY_ID, limit=100_000)
#: (queries new to the device, at most one work unit, the ids from
#: ``known`` that are finished); all three empty when the hold expired
WORK_ANSWER = _struct(
    "answer",
    _listing("queries", QUERY, limit=100_000),
    _optional("unit", UNIT),
    _listing("done", QUERY_ID, limit=100_000),
)
#: (RESULT_PARTIALS, partials) or (RESULT_ROWS, rows)
PARTITION_RESULT = _tagged(
    "result kind", {frames.RESULT_PARTIALS: PARTIALS, frames.RESULT_ROWS: ROWS}
)
#: the (count, head) a client last observed, when it wants a proof
COMMITMENT_CHECK = _optional("check", _struct("commitment", I64, BLOB), default=None)
#: (count, head, head-at-the-checked-count or None); None without a store
ATTESTATION = _optional("attestation", _struct("attestation", I64, BLOB, OPT_BLOB))
#: (status, event-loop lag, window seconds, reasons); None when unmonitored
HEALTH = _optional(
    "verdict", _struct("verdict", U8, F64, F64, _listing("reasons", TEXT))
)
#: (protocol version, capability bits) — what MSG_HELLO reports each way
_HELLO = (
    Field("version", Writer.u8, Reader.u8, default=frames.PROTOCOL_VERSION),
    Field("capabilities", Writer.u32, Reader.u32, default=frames.CAPABILITIES),
)


# --------------------------------------------------------------------- #
# rows
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Op(Generic[R]):
    """One SSI operation.

    ``opcode``    request msg-type byte (None: journal-only, never sent)
    ``name``      stable lowercase label (``msg_type`` metric label)
    ``request``   fields after the idempotency key, in wire order; also
                  the payload of the operation's WAL record
    ``response``  the one field of the MSG_OK payload
    ``idem``      request is headed by an idempotency key; a replayed
                  key is acked without running the operation again
    ``durable``   no ack leaves before this is on disk (under the
                  store's fsync policy).  On a journaled row: a record
                  of this type is one acks wait for.  On a wire row: its
                  ack waits.  The ack of a *journaled request*
                  (``record != 0``) says "this mutation is on disk"
                  whether this copy of the request or an earlier one
                  made it — a replayed key and a second close append
                  nothing and must still not overtake the original's
                  fsync — so it waits for the last durable record anyone
                  appended (``journal.durable_seq``).  The ack of any
                  other durable row promises nothing about other
                  requests' records: it waits only when its own handling
                  appended a durable record.  Either carries the
                  commitment exactly then, and never leaves before the
                  count it attests is on disk
    ``record``    WAL record type byte (0: the operation is not journaled)
    ``method``    the :class:`SupportingServerInfrastructure` method the
                  operation runs (live and at replay) and is journaled as
    ``handler``   name of the ``SSIDispatcher`` method to run instead,
                  for operations that need more than the facade call; a
                  coroutine when it waits, and one whose last request
                  field is ``HOLD`` may park the request (it gets a
                  ``_Hold`` first, which keeps parked time out of the
                  operation's handling time)
    ``tds_bytes`` the operation moves TDS ciphertext (PL004 must see it
                  accounted in LoadQ)
    """

    opcode: int | None
    name: str
    request: tuple[Field[Any], ...]
    response: Field[R]
    idem: bool = False
    durable: bool = False
    record: int = 0
    method: str = ""
    handler: str = ""
    tds_bytes: bool = False

    def bind(self, args: tuple[Any, ...], kwargs: dict[str, Any]) -> Sequence[Any]:
        """Request values in field order from a proxy call's arguments,
        with the same errors a hand-written signature would raise."""
        fields = self.request
        if not kwargs and len(args) == len(fields):
            return args
        if len(args) > len(fields):
            raise TypeError(
                f"{self.name}() takes {len(fields)} arguments, got {len(args)}"
            )
        values = list(args)
        for field in fields[len(args):]:
            if field.name in kwargs:
                values.append(kwargs.pop(field.name))
            elif field.default is not _REQUIRED:
                values.append(field.default)
            else:
                raise TypeError(f"{self.name}() missing argument {field.name!r}")
        if kwargs:
            raise TypeError(
                f"{self.name}() got unexpected arguments {sorted(kwargs)}"
            )
        return values

    def write_request(self, w: Writer, values: Sequence[Any]) -> None:
        for field, value in zip(self.request, values, strict=True):
            field.write(w, value)

    def read_request(self, r: Reader) -> list[Any]:
        values = [field.read(r) for field in self.request]
        r.expect_end()
        return values


#: every row, in registration order
TABLE: list[Op[Any]] = []
#: request msg-type byte -> row (the dispatcher's lookup)
BY_OPCODE: dict[int, Op[Any]] = {}
#: WAL record type -> row, and facade method -> row, for journaled rows
BY_RECORD: dict[int, Op[Any]] = {}
JOURNALED: dict[str, Op[Any]] = {}


def register(op: Op[R]) -> Op[R]:
    """Add a row to the table; every derived surface sees it from then
    on.  Opcodes, names and record types are each unique."""
    if any(op.name == other.name for other in TABLE):
        raise ValueError(f"duplicate op name {op.name!r}")
    if op.opcode is not None:
        if not 0 < op.opcode < frames.MSG_OK:
            raise ValueError(f"opcode 0x{op.opcode:02x} outside the request range")
        if op.opcode in BY_OPCODE:
            raise ValueError(f"duplicate opcode 0x{op.opcode:02x}")
    if op.record:
        if not op.method:
            raise ValueError(f"journaled op {op.name!r} names no facade method")
        if op.record in BY_RECORD or op.method in JOURNALED:
            raise ValueError(f"duplicate WAL record for {op.name!r}")
        BY_RECORD[op.record] = op
        JOURNALED[op.method] = op
    if op.opcode is not None:
        BY_OPCODE[op.opcode] = op
    TABLE.append(op)
    return op


POST_QUERY = register(Op(
    frames.MSG_POST_QUERY, "post_query", (ENVELOPE, PERSONAL_TDS_ID, META), NOTHING,
    idem=True, durable=True, record=1, method="post_query", handler="_post_query",
))
FETCH_QUERY = register(Op(
    frames.MSG_FETCH_QUERY, "fetch_query", (QUERY_ID,), QUERY,
    handler="_fetch_query",
))
SUBMIT_TUPLES = register(Op(
    frames.MSG_SUBMIT_TUPLES, "submit_tuples", (QUERY_ID, TUPLES), NOTHING,
    idem=True, durable=True, record=2, method="submit_tuples", handler="_submit",
    tds_bytes=True,
))
COLLECTED_COUNT = register(Op(
    frames.MSG_COLLECTED_COUNT, "collected_count", (QUERY_ID,), I64,
    method="collected_count",
))
CLOSE_COLLECTION = register(Op(
    frames.MSG_CLOSE_COLLECTION, "close_collection", (QUERY_ID,), NOTHING,
    durable=True, record=5, method="close_collection",
))
FETCH_RESULT = register(Op(
    frames.MSG_FETCH_RESULT, "fetch_result", (QUERY_ID,), RESULT,
    method="fetch_result",
))
SUBMIT_PARTITION_RESULT = register(Op(
    frames.MSG_SUBMIT_PARTITION_RESULT, "submit_partition_result",
    (QUERY_ID, PARTITION_ID, TDS_ID, PARTITION_RESULT), NOTHING,
    durable=True, handler="_submit_partition_result",
))
PING = register(Op(frames.MSG_PING, "ping", (), NOTHING))
SUBMIT_TUPLES_BATCH = register(Op(
    frames.MSG_SUBMIT_TUPLES_BATCH, "submit_tuples_batch", (QUERY_ID, TUPLE_BLOCK), NOTHING,
    idem=True, durable=True, record=3, method="submit_tuple_block", handler="_submit",
    tds_bytes=True,
))
GET_STATS = register(Op(
    frames.MSG_GET_STATS, "get_stats", (), TEXT, handler="_get_stats",
))
HELLO = register(Op(
    frames.MSG_HELLO, "hello", _HELLO, _struct("hello", *_HELLO), handler="_hello",
))
# Durable: the head its payload reports must be synced before it leaves.
GET_COMMITMENT = register(Op(
    frames.MSG_GET_COMMITMENT, "get_commitment", (COMMITMENT_CHECK,), ATTESTATION,
    durable=True, handler="_get_commitment",
))
GET_HEALTH = register(Op(
    frames.MSG_GET_HEALTH, "get_health", (), HEALTH, handler="_get_health",
))
# The long polls (DESIGN §7 "Waiting for work").  await_work is durable
# although it journals nothing itself: handing out work may auto-close a
# collection or publish an empty result, that appends durable records,
# and a commitment observed via any response must never cover an
# unsynced record.  One that appended nothing waits for nothing.
AWAIT_WORK = register(Op(
    frames.MSG_AWAIT_WORK, "await_work", (TDS_ID, KNOWN, HOLD), WORK_ANSWER,
    durable=True, handler="_await_work",
))
AWAIT_RESULT = register(Op(
    frames.MSG_AWAIT_RESULT, "await_result", (QUERY_ID, HOLD),
    _optional("result", RESULT), handler="_await_result",
))
# The SSI's own steps (paper §3.2 steps 5–12 as the SSI sees them):
# journaled when the coordinator runs them through the facade, replayed
# from the log, never sent.  The two partials rows are not durable:
# recovery discards what they rebuild and re-runs aggregation from the
# covering result (SSIDispatcher.with_store), so a TDS whose partial
# was acked and lost has lost nothing — and the next durable record's
# fsync covers them anyway.
SUBMIT_PARTIALS = register(Op(
    None, "submit_partials", (QUERY_ID, PARTIALS), NOTHING,
    record=4, method="submit_partials", tds_bytes=True,
))
TAKE_PARTIALS = register(Op(
    None, "take_partials", (QUERY_ID,), NOTHING,
    record=6, method="take_partials", tds_bytes=True,
))
STORE_RESULT_ROWS = register(Op(
    None, "store_result_rows", (QUERY_ID, ROWS), NOTHING,
    durable=True, record=7, method="store_result_rows", tds_bytes=True,
))
PUBLISH_RESULT = register(Op(
    None, "publish_result", (QUERY_ID,), NOTHING,
    durable=True, record=8, method="publish_result",
))
#: written by recovery itself when it clears a coordinator query's
#: leftover partials/result rows before the rebuilt coordinator re-runs
#: aggregation from the covering result (see SSIDispatcher.with_store)
RESET_AGGREGATION = register(Op(
    None, "reset_aggregation", (QUERY_ID,), NOTHING,
    durable=True, record=9, method="reset_aggregation",
))
