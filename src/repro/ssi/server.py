"""The Supporting Server Infrastructure facade.

"A powerful, highly available but untrusted" server (§2.1): it moves
ciphertext around, evaluates the cleartext SIZE clause, partitions opaque
items and notifies the querier — and secretly logs everything it sees into
its :class:`~repro.ssi.observer.Observer` (the honest-but-curious half).

Nothing in this module ever holds a key or a plaintext tuple; the test
suite asserts this boundary by attacking the observer log.
"""

from __future__ import annotations

from typing import Iterable, Protocol

from repro.core.messages import (
    EncryptedPartial,
    EncryptedTuple,
    EncryptedTupleBlock,
    QueryEnvelope,
    QueryResult,
)
from repro.exceptions import (
    DuplicateQueryError,
    ResultNotReadyError,
    UnknownQueryError,
)
from repro.obs.spans import QueryLifecycle
from repro.ssi.observer import Observer
from repro.ssi.querybox import GlobalQuerybox, PersonalQuerybox
from repro.ssi.storage import QueryStorage


class StateJournal(Protocol):
    """What the SSI needs from a durability journal.

    Structural typing on purpose: the concrete implementation lives in
    :mod:`repro.store` (which imports the wire codec), and this module
    must stay import-light on the SSI side of the trust boundary.
    """

    def record(
        self,
        method: str,
        *args: object,
        wire: bytes | memoryview | None = None,
    ) -> int:
        """Persist the mutation the facade method named *method* is
        about to apply with *args* (*wire*: the same arguments as the
        request encoded them, when at hand) and return its WAL
        sequence.  Which methods are journaled, and as what record, is
        declared in :mod:`repro.net.ops`."""
        ...


class SupportingServerInfrastructure:
    """SSI: queryboxes + temporary storage + partitioning services."""

    def __init__(self, observer: Observer | None = None) -> None:
        self.global_querybox = GlobalQuerybox()
        self.personal_querybox = PersonalQuerybox()
        self.observer = observer if observer is not None else Observer()
        self._storage: dict[str, QueryStorage] = {}
        self._envelopes: dict[str, QueryEnvelope] = {}
        # Phase spans hang off the facade because both the dispatcher
        # and the server-side coordinator call these methods directly —
        # this is the one choke point that sees every phase transition.
        # A lifecycle transition may record spans, never raise.
        self.lifecycle = QueryLifecycle()
        #: durability journal (see :class:`StateJournal`); when set,
        #: every state mutation is written *ahead* of being applied.
        #: post_query is journaled by the dispatcher instead — the
        #: record needs the scheduling meta this facade never sees.
        self.journal: StateJournal | None = None

    # ------------------------------------------------------------------ #
    # query posting / download (steps 1-2)
    # ------------------------------------------------------------------ #
    def post_query(self, envelope: QueryEnvelope, tds_id: str | None = None) -> None:
        """Post to the global querybox, or to one personal querybox when
        *tds_id* is given."""
        if envelope.query_id in self._envelopes:
            raise DuplicateQueryError(f"duplicate query id {envelope.query_id!r}")
        self._envelopes[envelope.query_id] = envelope
        self._storage[envelope.query_id] = QueryStorage()
        if tds_id is None:
            self.global_querybox.post(envelope)
        else:
            self.personal_querybox.post(tds_id, envelope)
        self.lifecycle.opened(envelope.query_id)

    def active_queries(self) -> list[QueryEnvelope]:
        return self.global_querybox.active()

    def envelope(self, query_id: str) -> QueryEnvelope:
        try:
            return self._envelopes[query_id]
        except KeyError:
            raise UnknownQueryError(f"unknown query {query_id!r}") from None

    # ------------------------------------------------------------------ #
    # collection phase (step 4, SIZE evaluation)
    # ------------------------------------------------------------------ #
    def submit_tuples(self, query_id: str, tuples: Iterable[EncryptedTuple]) -> None:
        """The tuples as one block.  No live caller: replay runs it for
        the per-item records of older logs, and it stays a method only
        because ``benchmarks/e2e/layers.py`` wraps it by name."""
        self.submit_tuple_block(query_id, EncryptedTupleBlock.from_tuples(list(tuples)))

    def submit_tuple_block(
        self,
        query_id: str,
        block: EncryptedTupleBlock,
        *,
        wire: bytes | memoryview | None = None,
    ) -> None:
        """One contribution (step 4): store the columnar block as-is —
        O(1) per block; it leaves again inside the covering result and
        the partitions cut from it, still without a per-tuple object.
        The observer sees the per-tuple sizes and tags, in the order
        they are stored."""
        storage = self._require(query_id)
        if storage.collection_closed:
            return  # late arrivals after the SIZE clause closed: dropped
        if self.journal is not None:
            self.journal.record("submit_tuple_block", query_id, block, wire=wire)
        storage.append_block(block)
        self.observer.record_block(
            query_id, "collection", block.offsets, block.tags
        )

    def collected_count(self, query_id: str) -> int:
        return self._require(query_id).collected_count()

    def evaluate_size_clause(self, query_id: str, elapsed_seconds: float = 0.0) -> bool:
        """Cleartext SIZE evaluation (§3.1); closes collection when met."""
        envelope = self.envelope(query_id)
        count = self._require(query_id).collected_count()
        met = False
        if envelope.size_tuples is not None and count >= envelope.size_tuples:
            met = True
        if envelope.size_seconds is not None and elapsed_seconds >= envelope.size_seconds:
            met = True
        # With no SIZE clause the query stays active until every targeted
        # TDS has answered (the drivers stop after their collector list).
        if met:
            self.close_collection(query_id)
        return met

    def close_collection(self, query_id: str) -> None:
        storage = self._require(query_id)
        if storage.collection_closed:
            return  # transition already happened; double-close is a no-op
        if self.journal is not None:
            self.journal.record("close_collection", query_id)
        storage.collection_closed = True
        self.global_querybox.close(query_id)
        self.lifecycle.collection_closed(
            query_id, collected=storage.collected_count()
        )

    def collection_closed(self, query_id: str) -> bool:
        return self._require(query_id).collection_closed

    def covering_result(self, query_id: str) -> EncryptedTupleBlock:
        """The covering result as one block: the stored contributions
        joined in arrival order, with no per-tuple object."""
        return EncryptedTupleBlock.concat(self._require(query_id).collected_blocks)

    # ------------------------------------------------------------------ #
    # aggregation phase storage (steps 5-8)
    # ------------------------------------------------------------------ #
    def submit_partials(
        self,
        query_id: str,
        partials: Iterable[EncryptedPartial],
        *,
        wire: bytes | memoryview | None = None,
    ) -> None:
        storage = self._require(query_id)
        items = list(partials)
        if self.journal is not None:
            self.journal.record("submit_partials", query_id, items, wire=wire)
        self.lifecycle.partials_submitted(query_id)
        for item in items:
            storage.partials.append(item)
            self.observer.record(
                query_id, "aggregation", len(item.payload), item.group_tag
            )

    def take_partials(self, query_id: str) -> list[EncryptedPartial]:
        """Drain the partial store (the next aggregation step re-partitions
        them)."""
        storage = self._require(query_id)
        if not storage.partials:
            return []
        if self.journal is not None:
            self.journal.record("take_partials", query_id)
        partials, storage.partials = storage.partials, []
        self.lifecycle.partials_taken(query_id, count=len(partials))
        return partials

    def partial_count(self, query_id: str) -> int:
        return len(self._require(query_id).partials)

    def reset_aggregation(self, query_id: str) -> None:
        """Discard a half-finished aggregation's partials and result
        rows: recovery calls this before a rebuilt coordinator re-runs
        aggregation from the covering result (merging is associative,
        so recomputing is always correct)."""
        storage = self._require(query_id)
        if self.journal is not None:
            self.journal.record("reset_aggregation", query_id)
        storage.partials.clear()
        storage.result_rows.clear()

    # ------------------------------------------------------------------ #
    # result delivery (step 13)
    # ------------------------------------------------------------------ #
    def store_result_rows(self, query_id: str, rows: Iterable[bytes]) -> None:
        storage = self._require(query_id)
        items = list(rows)
        if self.journal is not None:
            self.journal.record("store_result_rows", query_id, items)
        for row in items:
            storage.result_rows.append(row)
            self.observer.record(query_id, "filtering", len(row), None)
        self.lifecycle.result_stored(query_id, rows=len(items))

    def publish_result(self, query_id: str) -> None:
        storage = self._require(query_id)
        if storage.result_ready:
            return  # transition already happened; republish is a no-op
        if self.journal is not None:
            self.journal.record("publish_result", query_id)
        storage.result_ready = True
        self.lifecycle.published(query_id)

    def result_ready(self, query_id: str) -> bool:
        return self._require(query_id).result_ready

    def fetch_result(self, query_id: str) -> QueryResult:
        storage = self._require(query_id)
        if not storage.result_ready:
            raise ResultNotReadyError(f"result of {query_id!r} not ready")
        return QueryResult(query_id, tuple(storage.result_rows))

    # ------------------------------------------------------------------ #
    # durability surface (repro.store snapshot/recovery)
    # ------------------------------------------------------------------ #
    def storage_map(self) -> dict[str, QueryStorage]:
        """The live per-query storage, keyed by query id.  Exposed for
        the durable store's snapshot capture and recovery restore — not
        a mutation API for request handlers."""
        return self._storage

    def envelope_map(self) -> dict[str, QueryEnvelope]:
        return self._envelopes

    def _require(self, query_id: str) -> QueryStorage:
        try:
            return self._storage[query_id]
        except KeyError:
            raise UnknownQueryError(f"unknown query {query_id!r}") from None
