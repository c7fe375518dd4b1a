"""The one stage machine that interprets the protocol table.

The paper has *one* protocol (§4: collection → aggregation → filtering);
its five variants differ in how a TDS encodes its tuples at collection
(device-side, see :meth:`TrustedDataServer.collect_frames`) and in what
the SSI does with the opaque items afterwards: cut partitions blindly or
by cleartext tag, how large, and when aggregation stops.  Both halves
read one row of :data:`repro.net.frames.PROTOCOLS` — its
:class:`~repro.net.frames.Stage` cells and its params — and
:class:`QueryCoordinator` advances one query through the row's stages as
TDSs ask for work.  Who asks differs by mode, the machine does not: the
:class:`~repro.net.server.SSIDispatcher` for a fleet over the wire, the
in-process :class:`~repro.protocols.base.ProtocolDriver` loop inline.

The coordinator only ever touches :class:`Partition` objects, opaque
payload blocks and cleartext ``group_tag`` routing handles — exactly the
SSI's legitimate view (§3.2: it forms partitions, hands them to whichever
TDSs are connected, reassigns timed-out ones and publishes the result).
The row is chosen by the cleartext protocol name in the query's
:class:`~repro.net.frames.QueryMeta`, knowledge the paper's SSI holds by
construction.
"""

from __future__ import annotations

import itertools
import random

from repro.core.messages import EncryptedTupleBlock, Partition
from repro.core.trace import ProtocolStats
from repro.exceptions import ProtocolError
from repro.net.frames import (
    PROTOCOLS,
    RESULT_PARTIALS,
    RESULT_ROWS,
    WORK_FILTER,
    WORK_FINALIZE,
    WORK_FOLD,
    WORK_FOLD_PER_GROUP,
    QueryMeta,
    WorkUnit,
)
from repro.ssi.partitioner import RandomPartitioner, TagPartitioner
from repro.ssi.server import SupportingServerInfrastructure
from repro.ssi.storage import PartitionTracker


#: work kind → the result kind a TDS answers it with; a stage answered
#: with partials is an aggregation round, one answered with rows filters
RESULT_OF = {
    WORK_FOLD: RESULT_PARTIALS,
    WORK_FOLD_PER_GROUP: RESULT_PARTIALS,
    WORK_FINALIZE: RESULT_ROWS,
    WORK_FILTER: RESULT_ROWS,
}


class QueryCoordinator:
    """Scheduler for one query: the SSI side of steps 5-13."""

    def __init__(
        self,
        ssi: SupportingServerInfrastructure,
        query_id: str,
        meta: QueryMeta,
        partition_timeout: float = 5.0,
        rng: random.Random | None = None,
    ) -> None:
        if meta.protocol not in PROTOCOLS:
            raise ProtocolError(
                f"no coordinator for protocol {meta.protocol!r}; supported: "
                f"{', '.join(PROTOCOLS)}"
            )
        self.ssi = ssi
        self.query_id = query_id
        self.meta = meta
        self.partition_timeout = meta.param("partition_timeout", partition_timeout)
        self.stats = ProtocolStats()
        # Partition shapes never affect aggregate results (merging is
        # associative); the rng only fixes the shuffle for replayability.
        self._rng = rng if rng is not None else random.Random(0)
        self._stages = PROTOCOLS[meta.protocol].stages
        #: index of the running stage: -1 while collecting, len(stages)
        #: once the result is published
        self._position = -1
        self._tracker: PartitionTracker | None = None
        #: the current round's partial blocks, until it advances
        self._outputs: list[EncryptedTupleBlock] = []
        self._partition_ids = itertools.count()

    # ------------------------------------------------------------------ #
    # scheduling interface
    # ------------------------------------------------------------------ #
    def done(self) -> bool:
        return self._position == len(self._stages)

    def assignable(self, now: float) -> int:
        """How many partitions :meth:`next_work` could hand out right
        now — what the dispatcher releases parked devices by.  The first
        stage opens here once the collection is closed, and expired
        assignments are reclaimed first."""
        if self._position < 0:
            if not self.ssi.collection_closed(self.query_id):
                return 0
            block = self.ssi.covering_result(self.query_id)
            self.stats.tuples_collected = len(block)
            self._open(0, block)
        self._advance()
        if self._tracker is None:
            return 0
        expired = self._tracker.expire(now)
        self.stats.reassigned_partitions += len(expired)
        return self._tracker.pending_count()

    def next_work(self, tds_id: str, now: float) -> WorkUnit | None:
        """Hand the next pending partition to *tds_id*, or ``None`` when
        there is nothing to do right now (collecting, everything assigned,
        or the query is done)."""
        if not self.assignable(now):
            return None
        assert self._tracker is not None
        partition = self._tracker.assign_next(tds_id, now)
        assert partition is not None
        kind = self._stages[self._position].kind
        return WorkUnit(self.query_id, kind, partition.partition_id, partition.block)

    def complete(
        self,
        partition_id: int,
        tds_id: str,
        result_kind: int,
        block: EncryptedTupleBlock,
    ) -> None:
        """Record one partition's result — a block of partials or of
        result rows, as *result_kind* says; advances the stage when the
        current tracker drains.  Duplicate completions (a reassignment
        race) are dropped — partial folding is idempotent per partition.
        So are *stale* completions: partition ids are coordinator-unique
        across rounds (:meth:`_open`), so an id the current tracker never
        issued is a timed-out TDS finally replying after the round
        advanced — dropping it (rather than erroring) keeps slow-but-
        healthy workers serving."""
        tracker = self._tracker
        if tracker is None or not tracker.knows(partition_id):
            return  # stale
        if not tracker.is_done(partition_id):
            expected = RESULT_OF[self._stages[self._position].kind]
            if result_kind != expected:
                raise ProtocolError(
                    f"stage {self._position} of {self.meta.protocol!r} expects "
                    f"result kind {expected}, got {result_kind}"
                )
            # Journal-and-apply first, then mark: an append that raised
            # leaves the partition open, so the device's retry is
            # executed, not dropped as a duplicate.
            if expected == RESULT_ROWS:
                self.ssi.store_result_rows(self.query_id, block)
            else:
                self.ssi.submit_partials(self.query_id, block)
                self._outputs.append(block)
            tracker.complete(partition_id, tds_id)
            self.stats.partitions_processed += 1
            self.stats.participants.add(tds_id)
        # also on a duplicate: the resend of the result that drained the
        # round finishes an advance whose append raised
        self._advance()

    # ------------------------------------------------------------------ #
    # stage machine
    # ------------------------------------------------------------------ #
    def _advance(self) -> None:
        """Move a drained round on: drain the SSI's partial store, then
        cut the round's outputs into the next stage (or publish).  Both
        steps journal, and an append may raise; until this went through
        the round stays drained with its outputs kept, and the next
        :meth:`complete` or :meth:`assignable` runs it again — a second
        ``take_partials`` of an already empty store journals nothing."""
        tracker = self._tracker
        if tracker is None or not tracker.all_done():
            return
        stage = self._stages[self._position]
        folded = RESULT_OF[stage.kind] == RESULT_PARTIALS
        if folded:
            self.ssi.take_partials(self.query_id)  # drained into the next stage
        outputs = EncryptedTupleBlock.concat(self._outputs)
        again = stage.repeats and len(outputs) > 1
        self._open(self._position + (0 if again else 1), outputs)
        self._outputs = []
        if folded:
            self.stats.aggregation_rounds += 1

    def _open(self, position: int, block: EncryptedTupleBlock) -> None:
        """Cut *block* into the partitions of stage *position*.  Past the
        last stage — or with nothing to cut (an empty collection,
        partitions that held only dummies or fakes) — the result the SSI
        holds is published instead of stalling every waiter forever."""
        if position == len(self._stages) or not block:
            self.ssi.publish_result(self.query_id)
            self._position = len(self._stages)
            self._tracker = None
            return
        self._position = position
        stage = self._stages[position]
        size = 0  # unsplit
        if stage.size_param is not None:
            size = round(self.meta.param(stage.size_param))
        # a repeating stage must shrink its input, so never 1-item chunks
        size = max(size or len(block), 2 if stage.repeats else 1)
        partitioner = (
            TagPartitioner(size) if stage.by_tag else RandomPartitioner(size, self._rng)
        )
        # Coordinator-unique partition ids across all rounds, so a stale
        # submit from a previous round can never alias a live partition.
        partitions = [
            Partition(next(self._partition_ids), part)
            for part in partitioner.partition(block)
        ]
        self._tracker = PartitionTracker(partitions, self.partition_timeout)
