"""Generic protocol machinery: querier, execution statistics, driver base.

Every concrete protocol (basic, S_Agg, Rnf_Noise, C_Noise, ED_Hist) is a
:class:`ProtocolDriver` composing the three phases of Fig. 2:

1. **collection** — connected TDSs download the query and push encrypted
   tuples to the SSI until the SIZE clause closes the query;
2. **aggregation** — (Group-By queries only) connected TDSs repeatedly
   download partitions, fold them into partial aggregations and push the
   encrypted partials back;
3. **filtering** — TDSs drop dummies / evaluate HAVING, and re-encrypt the
   final rows under k1 for the querier.

Drivers run synchronously in "logical rounds"; the discrete-event
simulator (:mod:`repro.simulation`) wraps the same primitives with timing
and connectivity.  Drivers also accumulate :class:`ProtocolStats`, the
concrete counterparts of the cost-model metrics (PTDS, LoadQ, Tlocal).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.core.codec import decode_packed
from repro.core.messages import Partition, QueryEnvelope, QueryResult, fresh_query_id
from repro.core.trace import ExecutionTrace
from repro.crypto.keys import KeyBundle
from repro.crypto.ndet import NonDeterministicCipher
from repro.exceptions import ProtocolError, QueryAbortedError
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.sql.ast import SelectStatement
from repro.sql.parser import parse
from repro.sql.schema import Row
from repro.ssi.server import SupportingServerInfrastructure
from repro.ssi.storage import PartitionTracker
from repro.tds.node import TrustedDataServer

#: wall time per protocol phase, on top of the logical ExecutionTrace —
#: the trace stays the accounting ledger (bytes, rounds); this histogram
#: is the operational view (where did the seconds go).
_PHASE_SECONDS = obs_metrics.REGISTRY.histogram(
    "repro_protocol_phase_seconds",
    "Wall time spent per driver phase, by protocol.",
    ("protocol", "phase"),
)


class Querier:
    """The query issuer: holds k1 (never k2) and a signed credential."""

    def __init__(self, keys: KeyBundle, credential: Any, rng: random.Random) -> None:
        if not keys.holds_k1():
            raise ProtocolError("a querier needs k1")
        if keys.holds_k2():
            raise ProtocolError("a querier must NOT hold k2 (it would read "
                                "intermediate results)")
        self._keys = keys
        self.credential = credential
        self._rng = rng

    def _cipher(self) -> NonDeterministicCipher:
        return NonDeterministicCipher(self._keys.k1.current.material, self._rng)

    def make_envelope(self, sql: str, query_id: str | None = None) -> QueryEnvelope:
        """Encrypt *sql* under k1; expose the SIZE clause in cleartext so
        the SSI can evaluate it (§3.2 step 1)."""
        statement = parse(sql)
        size = statement.size
        return QueryEnvelope(
            query_id=query_id or fresh_query_id(),
            encrypted_query=self._cipher().encrypt(sql.encode("utf-8")),
            credential=self.credential,
            size_tuples=size.max_tuples if size else None,
            size_seconds=size.max_seconds if size else None,
        )

    def decrypt_result(self, result: QueryResult) -> list[Row]:
        """Step 13: download and decrypt the final rows — one packed
        authenticate-then-decrypt pass over the whole result set."""
        rows = result.encrypted_rows
        if not rows:
            return []
        offsets = [0]
        total = 0
        for row in rows:
            total += len(row)
            offsets.append(total)
        plain, plain_offsets = self._cipher().decrypt_block(
            b"".join(rows), offsets
        )
        return decode_packed(plain, plain_offsets)


@dataclass
class ProtocolStats:
    """Concrete execution metrics (one query run).

    * ``participants`` — distinct TDS ids that did any work (≈ PTDS);
    * ``aggregation_rounds`` — iterations of the aggregation phase;
    * ``bytes_processed`` — total payload bytes downloaded+uploaded by all
      TDSs across all phases (≈ LoadQ);
    * ``tuples_collected`` — Covering Result size, including dummies/fakes;
    * ``per_tds_bytes`` — per-TDS byte totals (max/mean ≈ Tlocal shape).
    """

    participants: set[str] = field(default_factory=set)
    aggregation_rounds: int = 0
    bytes_processed: int = 0
    tuples_collected: int = 0
    partitions_processed: int = 0
    reassigned_partitions: int = 0
    per_tds_bytes: dict[str, int] = field(default_factory=dict)

    def charge(self, tds_id: str, num_bytes: int) -> None:
        self.participants.add(tds_id)
        self.bytes_processed += num_bytes
        self.per_tds_bytes[tds_id] = self.per_tds_bytes.get(tds_id, 0) + num_bytes

    def max_tds_bytes(self) -> int:
        return max(self.per_tds_bytes.values(), default=0)

    def mean_tds_bytes(self) -> float:
        if not self.per_tds_bytes:
            return 0.0
        return sum(self.per_tds_bytes.values()) / len(self.per_tds_bytes)


#: Optional failure injector: called before a TDS processes a partition;
#: returning True makes the TDS "go offline mid-partition" (§3.2).
FailureInjector = Callable[[str, Partition], bool]


class ProtocolDriver:
    """Shared mechanics for all querying protocols."""

    #: protocol name used in reports and the registry
    name = "abstract"

    def __init__(
        self,
        ssi: SupportingServerInfrastructure,
        collectors: Sequence[TrustedDataServer],
        workers: Sequence[TrustedDataServer],
        rng: random.Random,
        failure_injector: FailureInjector | None = None,
        collection_interval: float = 1.0,
    ) -> None:
        if not collectors:
            raise ProtocolError("at least one collector TDS is required")
        if not workers:
            raise ProtocolError("at least one worker TDS is required")
        if collection_interval < 0:
            raise ProtocolError("collection_interval must be >= 0")
        self.ssi = ssi
        self.collectors = list(collectors)
        self.workers = list(workers)
        self.rng = rng
        self.failure_injector = failure_injector
        #: logical seconds between consecutive collector connections; the
        #: clock a ``SIZE n SECONDS`` clause is evaluated against
        self.collection_interval = collection_interval
        self.stats = ProtocolStats()
        #: what happened, for the timed simulator to replay
        self.trace = ExecutionTrace()
        #: query id of the run in flight, so phases after collection can
        #: tag their spans with the query's trace id
        self._query_id: str | None = None

    # ------------------------------------------------------------------ #
    # subclass interface
    # ------------------------------------------------------------------ #
    def execute(self, envelope: QueryEnvelope) -> None:
        """Run the full protocol; afterwards the SSI holds the published
        result."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # shared helpers
    # ------------------------------------------------------------------ #
    def open_statement(self, envelope: QueryEnvelope) -> SelectStatement:
        """A worker TDS opens the query (needed to drive later phases).

        Uses the first worker; any TDS yields the same statement."""
        return self.workers[0].open_query(envelope)

    def account(
        self,
        phase: str,
        round_index: int,
        tds_id: str,
        bytes_down: int,
        bytes_up: int,
    ) -> None:
        """Charge one unit of TDS work to the stats *and* the trace.

        LoadQ counts every byte a TDS moves — downloads and uploads — so
        going through this single choke point keeps the invariant
        ``stats.bytes_processed == trace.total_bytes()``."""
        self.stats.charge(tds_id, bytes_down + bytes_up)
        self.trace.record(phase, round_index, tds_id, bytes_down, bytes_up)

    def record_collection(self, envelope: QueryEnvelope, tds_id: str, bytes_up: int) -> None:
        """Account one collector's contribution (query download + tuple
        upload)."""
        self.account(
            "collection", -1, tds_id, len(envelope.encrypted_query), bytes_up
        )

    def run_collection(
        self,
        envelope: QueryEnvelope,
        collect: Callable[[TrustedDataServer, QueryEnvelope], Sequence[Any]],
    ) -> None:
        """Shared collection phase: collectors connect one by one until the
        SIZE clause closes the query (or every collector has answered).

        Collector *i* connects at logical time ``i * collection_interval``
        seconds; a ``SIZE n SECONDS`` clause is evaluated against that
        clock *before* each contribution (so ``SIZE 0 SECONDS`` closes
        with zero tuples) and the tuple-count clause immediately after
        each upload."""
        self._query_id = envelope.query_id
        span = obs_spans.RECORDER.start(
            "driver:collection",
            trace_id=obs_spans.derive_trace_id(envelope.query_id),
            protocol=self.name,
        )
        started = time.perf_counter()
        try:
            for index, tds in enumerate(self.collectors):
                elapsed = index * self.collection_interval
                if self.ssi.evaluate_size_clause(envelope.query_id, elapsed):
                    break
                tuples = collect(tds, envelope)
                self.ssi.submit_tuples(envelope.query_id, tuples)
                uploaded = sum(len(t.payload) for t in tuples)
                self.record_collection(envelope, tds.tds_id, uploaded)
                if self.ssi.evaluate_size_clause(envelope.query_id, elapsed):
                    break
            self.ssi.close_collection(envelope.query_id)
            self.stats.tuples_collected = self.ssi.collected_count(envelope.query_id)
        finally:
            span.annotate(count=self.stats.tuples_collected)
            span.finish()
            _PHASE_SECONDS.labels(protocol=self.name, phase="collection").observe(
                time.perf_counter() - started
            )

    def run_partitions(
        self,
        partitions: Sequence[Partition],
        handler: Callable[[TrustedDataServer, Partition], int | None],
        phase: str = "aggregation",
        round_index: int = 0,
        timeout: float = 60.0,
    ) -> None:
        """Dispatch *partitions* to worker TDSs round-robin, honouring the
        timeout/reassignment discipline: a worker that "goes offline"
        (failure injector) never completes, and the tracker re-issues the
        partition to the next worker.  *handler* returns the bytes it
        uploaded (None → 0), which feeds the execution trace."""
        trace_id = (
            obs_spans.derive_trace_id(self._query_id)
            if self._query_id is not None
            else 0
        )
        span = obs_spans.RECORDER.start(
            f"driver:{phase}",
            trace_id=trace_id,
            protocol=self.name,
            round=round_index,
            count=len(partitions),
        )
        started = time.perf_counter()
        try:
            tracker = PartitionTracker(list(partitions), timeout)
            now = 0.0
            worker_cycle = 0
            max_attempts = len(partitions) * (len(self.workers) + 2) + 10
            attempts = 0
            while not tracker.all_done():
                attempts += 1
                if attempts > max_attempts:
                    raise QueryAbortedError(
                        "partition processing did not converge (all workers failing?)"
                    )
                worker = self.workers[worker_cycle % len(self.workers)]
                worker_cycle += 1
                partition = tracker.assign_next(worker.tds_id, now)
                if partition is None:
                    # Everything assigned but not done: simulate timeouts firing.
                    now += tracker.timeout
                    expired = tracker.expire(now)
                    if expired:
                        self.stats.reassigned_partitions += len(expired)
                    continue
                if self.failure_injector is not None and self.failure_injector(
                    worker.tds_id, partition
                ):
                    tracker.fail(partition.partition_id)
                    self.stats.reassigned_partitions += 1
                    continue
                bytes_up = handler(worker, partition) or 0
                tracker.complete(partition.partition_id, worker.tds_id)
                self.stats.partitions_processed += 1
                self.account(
                    phase, round_index, worker.tds_id, partition.byte_size(), bytes_up
                )
        finally:
            span.finish()
            _PHASE_SECONDS.labels(protocol=self.name, phase=phase).observe(
                time.perf_counter() - started
            )

    def publish(self, envelope: QueryEnvelope, encrypted_rows: Sequence[bytes]) -> None:
        span = obs_spans.RECORDER.start(
            "driver:publish",
            trace_id=obs_spans.derive_trace_id(envelope.query_id),
            protocol=self.name,
            count=len(encrypted_rows),
        )
        started = time.perf_counter()
        try:
            self.ssi.store_result_rows(envelope.query_id, encrypted_rows)
            self.ssi.publish_result(envelope.query_id)
        finally:
            span.finish()
            _PHASE_SECONDS.labels(protocol=self.name, phase="publish").observe(
                time.perf_counter() - started
            )
