"""Hash-chained commitment log over WAL records.

The SSI is untrusted: after a restart it could silently present an
*older* state (rollback) or a state with some contributions removed
(selective dropping).  Encryption alone cannot detect either — the
defense is a commitment the SSI must keep extending and can never
rewrite:

    head_0 = GENESIS (32 zero bytes)
    head_i = blake2b(head_{i-1} || blake2b(seq_i || body_i))

The SSI returns ``(count, head)`` in every durable-op ack and answers
``MSG_GET_COMMITMENT`` probes.  A client that remembers the last
``(count, head)`` it saw can later ask "what was your head at my
count?" — an honest SSI answers with the identical head (the chain is
append-only, so ``head_at(count)`` never changes); a rolled-back or
forked SSI either reports a *smaller* count or a *different* head at
the same count, and the client raises
:class:`~repro.exceptions.RollbackDetectedError`.

This is the hash-chain half of a transparency log.  A production
deployment would additionally sign each head inside the TDS's secure
enclave and gossip heads between clients; both are out of scope here
and called out in DESIGN.md §9.

Import discipline: this module must stay import-light (stdlib only) —
:mod:`repro.net.client` imports it, and the client must never pull the
whole store stack (or :mod:`repro.ssi`) into a querier process.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Sequence

from repro.exceptions import ProtocolError, StoreError

#: chain head before any record was appended
GENESIS_HEAD = bytes(32)

#: blake2b digest size used throughout (32 bytes = 256-bit)
DIGEST_BYTES = 32

#: wire encoding of one commitment: u64 count (BE) + 32-byte head
WIRE_BYTES = 8 + DIGEST_BYTES


def record_digest(seq: int, body: "bytes | Sequence[bytes]") -> bytes:
    """Leaf digest of one WAL record: blake2b over the sequence number
    and the record body (the same bytes the WAL CRC covers, so the
    chain and the log can never disagree about what record *i* was).
    The body may be given as chunks to spare the caller a join — the
    digest is over their concatenation."""
    h = hashlib.blake2b(digest_size=DIGEST_BYTES)
    h.update(struct.pack(">Q", seq))
    if isinstance(body, (bytes, bytearray, memoryview)):
        h.update(body)
    else:
        for part in body:
            h.update(part)
    return h.digest()


def chain_step(head: bytes, leaf: bytes) -> bytes:
    h = hashlib.blake2b(digest_size=DIGEST_BYTES)
    h.update(head)
    h.update(leaf)
    return h.digest()


@dataclass(frozen=True, slots=True)
class Commitment:
    """One (record count, chain head) observation of an SSI's log."""

    count: int
    head: bytes

    def to_wire(self) -> bytes:
        if len(self.head) != DIGEST_BYTES:
            raise ProtocolError(
                f"commitment head of {len(self.head)} bytes, expected "
                f"{DIGEST_BYTES}"
            )
        return struct.pack(">Q", self.count) + self.head

    @classmethod
    def from_wire(cls, raw: bytes) -> "Commitment":
        if len(raw) != WIRE_BYTES:
            raise ProtocolError(
                f"commitment extension of {len(raw)} bytes, expected "
                f"{WIRE_BYTES}"
            )
        (count,) = struct.unpack(">Q", raw[:8])
        return cls(count=count, head=raw[8:])


class CommitmentChain:
    """The append-only blake2b chain over a WAL's records.

    Keeps every intermediate head in memory (32 bytes per record) so the
    SSI can answer ``head_at(count)`` for *any* historical count a
    client saw — including counts whose WAL segments have since been
    garbage-collected.  Snapshots persist the head list, so the chain
    survives restarts without replaying GC'd segments.
    """

    def __init__(self, heads: list[bytes] | None = None) -> None:
        # heads[i] = head after i+1 records; the genesis head is implicit.
        self._heads: list[bytes] = list(heads) if heads else []
        for i, head in enumerate(self._heads):
            if len(head) != DIGEST_BYTES:
                raise StoreError(
                    f"restored chain head {i} has {len(head)} bytes"
                )

    def __len__(self) -> int:
        return len(self._heads)

    @property
    def count(self) -> int:
        return len(self._heads)

    @property
    def head(self) -> bytes:
        return self._heads[-1] if self._heads else GENESIS_HEAD

    def append(self, seq: int, body: bytes | Sequence[bytes]) -> bytes:
        """Extend the chain with one record; returns the new head."""
        return self.append_leaf(record_digest(seq, body))

    def append_leaf(self, leaf: bytes) -> bytes:
        """Extend the chain with a precomputed leaf digest."""
        head = chain_step(self.head, leaf)
        self._heads.append(head)
        return head

    def head_at(self, count: int) -> bytes | None:
        """The chain head after exactly *count* records, or ``None`` for
        a count this chain has not reached (a client ahead of us — the
        client-side rollback signal)."""
        if count < 0 or count > len(self._heads):
            return None
        if count == 0:
            return GENESIS_HEAD
        return self._heads[count - 1]

    def commits_to(self, seq: int, body: bytes | Sequence[bytes]) -> bool:
        """Whether this chain's record *seq* is *body*: the head after it
        is the step from the head before it with this record's leaf."""
        if not 1 <= seq <= len(self._heads):
            return False
        prev = self._heads[seq - 2] if seq > 1 else GENESIS_HEAD
        return chain_step(prev, record_digest(seq, body)) == self._heads[seq - 1]

    def commitment(self) -> Commitment:
        return Commitment(count=self.count, head=self.head)

    def heads(self) -> list[bytes]:
        """A copy of every intermediate head (snapshot persistence)."""
        return list(self._heads)

    def verify_extends(self, earlier: Commitment) -> bool:
        """Whether this chain is a descendant of *earlier*: same length
        or longer, with the identical head at ``earlier.count``."""
        head = self.head_at(earlier.count)
        return head is not None and head == earlier.head
