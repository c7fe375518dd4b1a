"""Typed WAL record encoding for SSI state mutations.

One WAL record = one logical mutation of the SSI's query state.  Which
mutations are journaled, their record type bytes and their payload
fields are declared by the journaled rows of the operation table
(:mod:`repro.net.ops`): a record's payload is the row's request fields,
encoded by the same codecs that frame them on the network, so the store
can never persist a shape the trust boundary does not already allow on
the wire.

Record body layout::

    u8 record type
    boolean has_idem [ text client_id | i64 seq ]
    <the row's request fields>

The optional idempotency key journals the dispatcher's watermark/ahead
dedup state *atomically with* the mutation it guarded: replaying the
record re-applies the mutation and re-marks the (client, seq) pair, so
a client retry after a crash-restart is recognized as a replay instead
of double-applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.exceptions import CorruptLogError, ProtocolError
from repro.net import ops
from repro.net.frames import Reader, Writer


@dataclass
class WalRecord:
    """One decoded WAL record: the journaled row, the idempotency key it
    carried, and the row's request values in field order."""

    op: ops.Op[Any]
    idem: tuple[str, int] | None
    args: list[Any]


def decode_record(body: bytes) -> WalRecord:
    """Decode one CRC-verified WAL body.  A body that passes the CRC but
    fails to decode means an encoder/decoder skew — surfaced as
    :class:`CorruptLogError`, never a misparse."""
    try:
        r = Reader(body)
        rtype = r.u8()
        op = ops.BY_RECORD.get(rtype)
        if op is None:
            raise ProtocolError(f"unknown record type 0x{rtype:02x}")
        return WalRecord(op, ops.RECORD_IDEM.read(r), op.read_request(r))
    except ProtocolError as exc:
        raise CorruptLogError(f"undecodable WAL record: {exc}") from None


class StoreJournal:
    """The mutation-facing half of the store: the SSI facade and the
    dispatcher call :meth:`record` as state changes.

    ``set_idem`` arms the idempotency key of the mutation about to be
    applied; the next record of an idempotent operation consumes it.
    The dispatcher calls ``clear_idem`` after each apply, so a mutation
    the SSI dropped without journaling (a late submission after the
    collection closed) cannot leak its key into the next record.
    The records of the SSI's own steps (close, partials, take, result
    rows, publish, reset) never consume a key, so an auto-close riding a
    submission cannot steal the submission's key.

    ``durable_seq`` is the sequence of the last record whose row is
    ``durable`` — what an ack that answers for a mutation waits to see
    on disk (0 until this process appends one: whatever recovery
    replayed was read from the disk).
    """

    def __init__(
        self, append: Callable[[bytes | memoryview | tuple[bytes | memoryview, ...]], int]
    ) -> None:
        self._append = append
        self._pending_idem: tuple[str, int] | None = None
        self.durable_seq = 0

    # -- idempotency context ------------------------------------------- #
    def set_idem(self, client_id: str, seq: int) -> None:
        self._pending_idem = (client_id, seq)

    def clear_idem(self) -> None:
        self._pending_idem = None

    # -- mutations ----------------------------------------------------- #
    def record(
        self,
        method: str,
        *args: object,
        wire: bytes | memoryview | None = None,
    ) -> int:
        """Append the record of facade mutation *method* applied with
        *args*.  *wire* is the raw request bytes holding those same
        arguments — byte-identical to re-encoding them (the codec is
        canonical), so the hot path journals without a second pass over
        the payload."""
        op = ops.JOURNALED[method]
        w = Writer().u8(op.record)
        idem = None
        if op.idem:
            idem, self._pending_idem = self._pending_idem, None
        ops.RECORD_IDEM.write(w, idem)
        if wire is not None:
            seq = self._append((w.getvalue(), wire))
        else:
            op.write_request(w, args)
            seq = self._append(w.getvalue())
        if op.durable:
            self.durable_seq = seq
        return seq
