"""The Supporting Server Infrastructure facade.

"A powerful, highly available but untrusted" server (§2.1): it moves
ciphertext around, evaluates the cleartext SIZE clause, partitions opaque
items and notifies the querier — and secretly logs everything it sees into
its :class:`~repro.ssi.observer.Observer` (the honest-but-curious half).

Nothing in this module ever holds a key or a plaintext tuple; the test
suite asserts this boundary by attacking the observer log.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Protocol

from repro.core.messages import (
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
from repro.ssi.observer import Observer
from repro.ssi.storage import QueryStorage

if TYPE_CHECKING:  # the SSI stores a meta, it never reads one
    from repro.net.frames import QueryMeta


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
    """SSI: one record per posted query (its querybox included) +
    temporary storage + partitioning services."""

    def __init__(self, observer: Observer | None = None) -> None:
        self.observer = observer if observer is not None else Observer()
        self._storage: dict[str, QueryStorage] = {}
        #: durability journal (see :class:`StateJournal`); when set,
        #: every state mutation is written *ahead* of being applied.
        self.journal: StateJournal | None = None

    # ------------------------------------------------------------------ #
    # query posting / download (steps 1-2)
    # ------------------------------------------------------------------ #
    def post_query(
        self,
        envelope: QueryEnvelope,
        tds_id: str | None = None,
        meta: QueryMeta | None = None,
    ) -> None:
        """Post to the global querybox, or to one personal querybox when
        *tds_id* is given; *meta* is kept with the query for whoever
        schedules it."""
        if envelope.query_id in self._storage:
            raise DuplicateQueryError(f"duplicate query id {envelope.query_id!r}")
        if self.journal is not None:
            self.journal.record("post_query", envelope, tds_id, meta)
        self._storage[envelope.query_id] = QueryStorage(envelope, meta, tds_id)

    def active_queries(self) -> list[QueryEnvelope]:
        """The global querybox: crowd-directed queries still collecting."""
        return [
            storage.envelope
            for storage in self._storage.values()
            if storage.tds_id is None and not storage.collection_closed
        ]

    def envelope(self, query_id: str) -> QueryEnvelope:
        return self.query(query_id).envelope

    def query(self, query_id: str) -> QueryStorage:
        """The record of *query_id* (typed error for unknown ids)."""
        try:
            return self._storage[query_id]
        except KeyError:
            raise UnknownQueryError(f"unknown query {query_id!r}") from None

    # ------------------------------------------------------------------ #
    # collection phase (step 4, SIZE evaluation)
    # ------------------------------------------------------------------ #
    def submit_tuples(
        self, query_id: str, tuples: EncryptedTupleBlock | Iterable[EncryptedTuple]
    ) -> None:
        """The tuples as one block.  Nothing in the SSI calls it; it
        stays a method only because ``benchmarks/e2e/layers.py`` wraps it
        by name."""
        if not isinstance(tuples, EncryptedTupleBlock):
            tuples = EncryptedTupleBlock.from_tuples(list(tuples))
        self.submit_tuple_block(query_id, tuples)

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
        storage = self.query(query_id)
        if storage.collection_closed:
            return  # late arrivals after the SIZE clause closed: dropped
        if self.journal is not None:
            self.journal.record("submit_tuple_block", query_id, block, wire=wire)
        storage.append_block(block)
        self.observer.record_block(
            query_id, "collection", block.offsets, block.tags
        )

    def collected_count(self, query_id: str) -> int:
        return self.query(query_id).collected_count()

    def evaluate_size_clause(self, query_id: str, elapsed_seconds: float = 0.0) -> bool:
        """Cleartext SIZE evaluation (§3.1); closes collection when met."""
        storage = self.query(query_id)
        envelope, count = storage.envelope, storage.collected_count()
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
        storage = self.query(query_id)
        if storage.collection_closed:
            return  # transition already happened; double-close is a no-op
        if self.journal is not None:
            self.journal.record("close_collection", query_id)
        storage.collection_closed = True

    def collection_closed(self, query_id: str) -> bool:
        return self.query(query_id).collection_closed

    def covering_result(self, query_id: str) -> EncryptedTupleBlock:
        """The covering result as one block: the stored contributions
        joined in arrival order, with no per-tuple object."""
        return EncryptedTupleBlock.concat(self.query(query_id).collected_blocks)

    # ------------------------------------------------------------------ #
    # aggregation phase storage (steps 5-8)
    # ------------------------------------------------------------------ #
    def submit_partials(
        self,
        query_id: str,
        block: EncryptedTupleBlock,
        *,
        wire: bytes | memoryview | None = None,
    ) -> None:
        """Hold the partials of one partition result (step 8), as the
        block they arrived in."""
        storage = self.query(query_id)
        if self.journal is not None:
            self.journal.record("submit_partials", query_id, block, wire=wire)
        if block:  # an empty store stays empty: nothing to drain
            storage.partials.append(block)
        self.observer.record_block(query_id, "aggregation", block.offsets, block.tags)

    def take_partials(self, query_id: str) -> list[EncryptedTupleBlock]:
        """Drain the partial store (the next aggregation step re-partitions
        them): the blocks it held."""
        storage = self.query(query_id)
        if not storage.partials:
            return []
        if self.journal is not None:
            self.journal.record("take_partials", query_id)
        blocks, storage.partials = storage.partials, []
        return blocks

    def partial_count(self, query_id: str) -> int:
        return sum(map(len, self.query(query_id).partials))

    def reset_aggregation(self, query_id: str) -> None:
        """Discard a half-finished aggregation's partials and result
        rows: recovery calls this before a rebuilt coordinator re-runs
        aggregation from the covering result (merging is associative,
        so recomputing is always correct)."""
        storage = self.query(query_id)
        if self.journal is not None:
            self.journal.record("reset_aggregation", query_id)
        storage.partials.clear()
        storage.result_rows.clear()

    # ------------------------------------------------------------------ #
    # result delivery (step 13)
    # ------------------------------------------------------------------ #
    def store_result_rows(self, query_id: str, block: EncryptedTupleBlock) -> None:
        """Hold the k1 result rows of one filtering partition (step 12)."""
        storage = self.query(query_id)
        if self.journal is not None:
            self.journal.record("store_result_rows", query_id, block)
        if block:
            storage.result_rows.append(block)
        self.observer.record_block(query_id, "filtering", block.offsets, block.tags)

    def publish_result(self, query_id: str) -> None:
        storage = self.query(query_id)
        if storage.result_ready:
            return  # transition already happened; republish is a no-op
        if self.journal is not None:
            self.journal.record("publish_result", query_id)
        storage.result_ready = True

    def result_ready(self, query_id: str) -> bool:
        return self.query(query_id).result_ready

    def fetch_result(self, query_id: str) -> QueryResult:
        storage = self.query(query_id)
        if not storage.result_ready:
            raise ResultNotReadyError(f"result of {query_id!r} not ready")
        return QueryResult(query_id, EncryptedTupleBlock.concat(storage.result_rows))

    # ------------------------------------------------------------------ #
    # durability surface (repro.store snapshot/recovery)
    # ------------------------------------------------------------------ #
    def storage_map(self) -> dict[str, QueryStorage]:
        """The record of every posted query, keyed by query id.  Exposed
        for the durable store's snapshot capture and recovery restore —
        not a mutation API for request handlers."""
        return self._storage
