"""Generic protocol machinery: querier and the one in-process engine.

Every concrete protocol (basic, S_Agg, Rnf_Noise, C_Noise, ED_Hist) runs
the three phases of Fig. 2:

1. **collection** — connected TDSs download the query and push encrypted
   tuples to the SSI until the SIZE clause closes the query;
2. **aggregation** — (Group-By queries only) connected TDSs repeatedly
   download partitions, fold them into partial aggregations and push the
   encrypted partials back;
3. **filtering** — TDSs drop dummies / evaluate HAVING, and re-encrypt the
   final rows under k1 for the querier.

What differs between them is data: a row of
:data:`repro.net.coordinator.PROTOCOLS` (how the SSI cuts partitions, when
aggregation stops) and what a device must know to encode its tuples at
collection.  :class:`ProtocolDriver` runs all five: collectors contribute,
then the workers serve, inline, the partitions the query's
:class:`~repro.net.coordinator.QueryCoordinator` hands out — the same
coordinator the SSI dispatcher drives for a fleet over the wire.  The
named subclasses carry their row's name, parameter validation and that
device-side knowledge, nothing else.

Drivers run synchronously on a logical clock; the simulator
(:mod:`repro.simulation`) replays their :class:`ExecutionTrace` with
timing and connectivity.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Sequence

from repro.core.codec import decode_packed
from repro.core.messages import (
    RESULT_PARTIALS,
    WORK_FOLD,
    FailureInjector,
    Partition,
    QueryEnvelope,
    QueryResult,
    fresh_query_id,
)
from repro.core.trace import ExecutionTrace, ProtocolStats
from repro.crypto.keys import KeyBundle
from repro.crypto.ndet import NonDeterministicCipher
from repro.exceptions import ProtocolError, QueryAbortedError
from repro.net.coordinator import QueryCoordinator
from repro.net.frames import QueryMeta
from repro.sql.parser import parse
from repro.sql.schema import Row
from repro.ssi.server import SupportingServerInfrastructure
from repro.tds.node import TrustedDataServer

if TYPE_CHECKING:
    from repro.protocols.verification import SpotChecker

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


class ProtocolDriver:
    """The in-process engine: collectors contribute, then the workers
    serve the partitions the query's coordinator hands out."""

    #: the driver's row of :data:`repro.net.coordinator.PROTOCOLS`
    name = "abstract"
    #: optional :class:`~repro.protocols.verification.SpotChecker`: when
    #: set, every single-partial fold is audited and corrected if
    #: tampered (the §8 compromised-TDS countermeasure)
    spot_checker: "SpotChecker | None" = None

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
        #: the stage machine of the query in flight (set by :meth:`collect`)
        #: and its stats, into which the driver charges the bytes TDSs move
        self.coordinator: QueryCoordinator | None = None
        self.stats = ProtocolStats()
        #: what happened, for the timed simulator to replay
        self.trace = ExecutionTrace()

    # -- what a protocol adds to its row --------------------------------- #
    def params(self) -> dict[str, float]:
        """Values for the :class:`QueryMeta` params the row's stages read."""
        return {}

    def device_knowledge(self) -> dict[str, Any]:
        """What collection needs a device to know beforehand — keyword
        arguments of :meth:`TrustedDataServer.collect_frames`, asked for
        once per collector."""
        return {}

    # -- the engine ------------------------------------------------------ #
    def execute(self, envelope: QueryEnvelope) -> None:
        """Run the full protocol; afterwards the SSI holds the published
        result."""
        self.collect(envelope)
        self.process(envelope)

    def account(
        self, phase: str, round_index: int, tds_id: str, bytes_down: int, bytes_up: int
    ) -> None:
        """Charge one unit of TDS work to the stats *and* the trace.

        LoadQ counts every byte a TDS moves — downloads and uploads — so
        going through this single choke point keeps the invariant
        ``stats.bytes_processed == trace.total_bytes()``."""
        self.stats.charge(tds_id, bytes_down + bytes_up)
        self.trace.record(phase, round_index, tds_id, bytes_down, bytes_up)

    def collect(self, envelope: QueryEnvelope) -> None:
        """Collection phase: collectors connect one by one until the SIZE
        clause closes the query (or every collector has answered).

        Collector *i* connects at logical time ``i * collection_interval``
        seconds; a ``SIZE n SECONDS`` clause is evaluated against that
        clock *before* each contribution (so ``SIZE 0 SECONDS`` closes
        with zero tuples) and the tuple-count clause immediately after
        each upload."""
        query_id = envelope.query_id
        self.coordinator = QueryCoordinator(
            self.ssi, query_id, QueryMeta(self.name, self.params()), rng=self.rng
        )
        self.stats = self.coordinator.stats
        for index, tds in enumerate(self.collectors):
            elapsed = index * self.collection_interval
            if self.ssi.evaluate_size_clause(query_id, elapsed):
                break
            block = tds.collect_block(envelope, self.name, **self.device_knowledge())
            tuples = list(block.tuples())
            self.ssi.submit_tuples(query_id, tuples)
            uploaded = sum(len(t.payload) for t in tuples)
            self.account(
                "collection", -1, tds.tds_id, len(envelope.encrypted_query), uploaded
            )
            if self.ssi.evaluate_size_clause(query_id, elapsed):
                break
        self.ssi.close_collection(query_id)

    def process(self, envelope: QueryEnvelope) -> None:
        """Aggregation and filtering: the workers take turns asking the
        coordinator for a partition and serving it, until the result is
        published.  Each round starts over at the first worker (a round
        is a barrier: everyone is idle again).

        A worker the failure injector fires on has gone offline
        mid-partition: it says nothing.  Once nothing is assignable the
        logical clock jumps one partition timeout, so the coordinator's
        own expiry re-issues what went silent — the code path a fleet
        exercises over the wire."""
        coordinator = self.coordinator
        if coordinator is None or coordinator.query_id != envelope.query_id:
            raise ProtocolError("collect() a query before processing it")
        now = 0.0
        turn = fruitless = 0
        while not coordinator.done():
            if fruitless > 2 * len(self.workers) + 10:
                raise QueryAbortedError(
                    "partition processing did not converge (all workers failing?)"
                )
            fruitless += 1
            worker = self.workers[turn % len(self.workers)]
            unit = coordinator.next_work(worker.tds_id, now)
            if unit is None:
                now += coordinator.partition_timeout
                continue
            turn += 1
            partition = Partition(unit.partition_id, unit.items)
            if self.failure_injector is not None and self.failure_injector(
                worker.tds_id, partition
            ):
                continue
            # Credential and policy gated what each device contributed;
            # serving a partition takes only the query (§3.2).
            statement = worker.decrypt_query(envelope)
            kind, outputs = worker.serve_partition(unit.kind, statement, partition)
            if self.spot_checker is not None and unit.kind == WORK_FOLD:
                outputs = [
                    self.spot_checker.audit_and_correct(
                        statement, partition, outputs[0], worker.tds_id
                    )
                ]
            folded = kind == RESULT_PARTIALS
            partials, rows = (outputs, []) if folded else ([], outputs)
            rounds = self.stats.aggregation_rounds
            coordinator.complete(
                unit.partition_id, worker.tds_id, kind, partials, rows
            )
            self.account(
                "aggregation" if folded else "filtering",
                rounds if folded else 0,
                worker.tds_id,
                partition.byte_size(),
                sum(len(p.payload) for p in partials) + sum(len(r) for r in rows),
            )
            if self.stats.aggregation_rounds != rounds:
                turn = 0
            fruitless = 0
