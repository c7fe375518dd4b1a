"""Message envelopes exchanged between querier, SSI and TDSs.

Everything the SSI stores or forwards is one of these frozen dataclasses.
The invariant maintained throughout: any field the SSI can read is either
ciphertext/opaque bytes, or data the paper explicitly allows in cleartext
(the SIZE clause, §3.2 step 1; credentials are signed but public).

``group_tag`` is the only protocol-visible routing handle:

* ``None``           — S_Agg and the basic protocol (fully nDet-encrypted,
                        SSI partitions blindly);
* ``Det_Enc(AG)``    — noise-based protocols (SSI groups equal tags);
* ``h(bucketId)``    — ED_Hist (SSI groups by bucket).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence


@dataclass(frozen=True, slots=True)
class Credential:
    """A querier credential signed by an authority (§3.1: "its credential C
    signed by an authority")."""

    subject: str
    roles: frozenset[str]
    signature: bytes

    def signing_payload(self) -> bytes:
        roles = ",".join(sorted(self.roles))
        return f"{self.subject}|{roles}".encode("utf-8")


@dataclass(frozen=True, slots=True)
class QueryEnvelope:
    """What the querier posts to a querybox (step 1 of Fig. 2).

    * ``encrypted_query`` — the SQL text under k1 (SSI cannot read it);
    * ``credential``      — cleartext but signed;
    * ``size_tuples`` / ``size_seconds`` — the SIZE clause in cleartext so
      the SSI can evaluate it (§3.1);
    * ``query_id``        — opaque correlation handle.
    """

    query_id: str
    encrypted_query: bytes
    credential: Credential
    size_tuples: int | None = None
    size_seconds: float | None = None


@dataclass(frozen=True, slots=True)
class EncryptedTuple:
    """One collected tuple as stored by the SSI (steps 4/4' of Fig. 2).

    ``payload`` is always nDet_Enc ciphertext.  ``group_tag`` is the
    protocol-dependent routing handle described in the module docstring.
    """

    payload: bytes
    group_tag: bytes | None = None


@dataclass(frozen=True, slots=True)
class EncryptedTupleBlock:
    """A columnar batch of encrypted tuples: one shared payload buffer
    plus an offsets table, instead of one object per tuple.

    This is the storage/wire shape of the batched collection path: the
    fleet packs many contributions into one block, the SSI stores the
    block as-is and only materializes individual
    :class:`EncryptedTuple` objects when the aggregation phase needs
    them.  The SSI's legitimate view is unchanged — payload *sizes* and
    cleartext group tags are still derivable (and observed), the payload
    bytes stay opaque ciphertext.

    ``offsets`` has ``count + 1`` entries; tuple *i*'s payload is
    ``payloads[offsets[i]:offsets[i + 1]]``.  ``tags`` has ``count``
    entries (``None`` for fully nDet-encrypted dataflows).
    """

    payloads: bytes
    offsets: tuple[int, ...]
    tags: tuple[bytes | None, ...]

    def __post_init__(self) -> None:
        if len(self.offsets) != len(self.tags) + 1:
            raise ValueError(
                f"offsets table of {len(self.offsets)} entries does not "
                f"match {len(self.tags)} tags"
            )
        if self.offsets[0] != 0 or self.offsets[-1] != len(self.payloads):
            raise ValueError("offsets table does not span the payload buffer")
        if any(a > b for a, b in zip(self.offsets, self.offsets[1:])):
            raise ValueError("offsets table is not monotonically increasing")

    def __len__(self) -> int:
        return len(self.tags)

    def payload_sizes(self) -> list[int]:
        return [b - a for a, b in zip(self.offsets, self.offsets[1:])]

    def tuples(self) -> Iterator[EncryptedTuple]:
        """Materialize per-tuple objects (the aggregation-phase view)."""
        view = memoryview(self.payloads)
        offsets = self.offsets
        for i, tag in enumerate(self.tags):
            yield EncryptedTuple(bytes(view[offsets[i] : offsets[i + 1]]), tag)

    @classmethod
    def from_tuples(cls, tuples: Sequence[EncryptedTuple]) -> "EncryptedTupleBlock":
        offsets = [0]
        total = 0
        for item in tuples:
            total += len(item.payload)
            offsets.append(total)
        return cls(
            payloads=b"".join(item.payload for item in tuples),
            offsets=tuple(offsets),
            tags=tuple(item.group_tag for item in tuples),
        )

    @classmethod
    def concat(cls, blocks: Sequence["EncryptedTupleBlock"]) -> "EncryptedTupleBlock":
        """Merge blocks into one without re-framing any payload bytes —
        how the batcher coalesces per-contribution blocks into one
        wire frame."""
        if len(blocks) == 1:
            return blocks[0]
        offsets = [0]
        tags: list[bytes | None] = []
        base = 0
        for block in blocks:
            offsets.extend(base + offset for offset in block.offsets[1:])
            tags.extend(block.tags)
            base += len(block.payloads)
        return cls(
            payloads=b"".join(block.payloads for block in blocks),
            offsets=tuple(offsets),
            tags=tuple(tags),
        )


@dataclass(frozen=True, slots=True)
class EncryptedPartial:
    """One encrypted partial aggregation Ω travelling back to the SSI
    during the aggregation phase (step 8 of Fig. 2)."""

    payload: bytes
    group_tag: bytes | None = None


@dataclass(frozen=True, slots=True)
class Partition:
    """A chunk of work the SSI hands to a connected TDS (steps 5/9).

    To the SSI the items are uninterpreted bytes; the ``partition_id``
    exists so a timed-out partition can be reassigned (§3.2 Correctness).
    """

    partition_id: int
    items: tuple[EncryptedTuple | EncryptedPartial, ...]

    def byte_size(self) -> int:
        return sum(len(item.payload) for item in self.items)


#: what a TDS is asked to do with a partition it is handed (steps 6-12)
WORK_FOLD = 1  # S_Agg: fold to a single partial
WORK_FOLD_PER_GROUP = 2  # tagged protocols: fold to per-group partials
WORK_FINALIZE = 3  # filtering: merge, HAVING, re-encrypt under k1
WORK_FILTER = 4  # basic protocol filtering: drop dummies, re-encrypt under k1

#: what it hands back: encrypted partials (aggregation) or k1 result rows
RESULT_PARTIALS = 1
RESULT_ROWS = 2

#: Failure injector: called before a TDS processes a partition; returning
#: True makes the TDS "go offline mid-partition" (§3.2).  The factories
#: live in :mod:`repro.simulation.failures`.
FailureInjector = Callable[[str, Partition], bool]


@dataclass(slots=True)
class QueryResult:
    """What the querier finally downloads (step 13): result rows under k1."""

    query_id: str
    encrypted_rows: tuple[bytes, ...]


_COUNTER = itertools.count(1)


def fresh_query_id(prefix: str = "q") -> str:
    """Process-unique query identifier."""
    return f"{prefix}{next(_COUNTER)}"


@dataclass(frozen=True, slots=True)
class TupleContent:
    """The *plaintext* structure inside an :class:`EncryptedTuple` payload.

    ``kind`` distinguishes true data from the dummy tuples of the basic
    protocol (§3.2 step 4': emitted when the WHERE clause selects nothing
    or access is denied, so the SSI cannot learn query selectivity) and
    from the fake tuples of the noise-based protocols (§4.3).
    """

    kind: str  # "data" | "dummy" | "fake"
    row: dict[str, Any] = field(default_factory=dict)

    KIND_DATA = "data"
    KIND_DUMMY = "dummy"
    KIND_FAKE = "fake"

    def is_real(self) -> bool:
        return self.kind == self.KIND_DATA

    def to_portable(self) -> dict[str, Any]:
        return {"kind": self.kind, "row": self.row}

    @classmethod
    def from_portable(cls, portable: dict[str, Any]) -> "TupleContent":
        return cls(kind=portable["kind"], row=dict(portable["row"]))
