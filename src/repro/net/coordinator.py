"""SSI-side query scheduling for fleet-mode execution.

In the paper the SSI itself drives the data flow of steps 5-13: it forms
partitions of opaque items, hands them to whichever TDSs are connected,
reassigns timed-out partitions and publishes the result (§3.2).  The
in-process :class:`~repro.protocols.base.ProtocolDriver` collapses that
loop into synchronous calls; this module is the real-system counterpart —
a :class:`QueryCoordinator` advances one query through its aggregation
and filtering stages as TDS clients ask for work over the wire.

The coordinator only ever touches :class:`Partition` objects, opaque
payload bytes and cleartext ``group_tag`` routing handles — exactly the
SSI's legitimate view.  Which partitioner to use (random vs. by-tag) is
derived from the cleartext protocol name in the query's
:class:`~repro.net.frames.QueryMeta`, knowledge the paper's SSI holds by
construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.messages import EncryptedPartial, Partition
from repro.exceptions import ProtocolError
from repro.net.frames import (
    RESULT_PARTIALS,
    RESULT_ROWS,
    WORK_FINALIZE,
    WORK_FOLD,
    WORK_FOLD_PER_GROUP,
    QueryMeta,
    WorkUnit,
)
from repro.ssi.partitioner import Item, RandomPartitioner, TagPartitioner
from repro.ssi.server import SupportingServerInfrastructure
from repro.ssi.storage import PartitionTracker

#: protocols the coordinator knows how to schedule
SUPPORTED_PROTOCOLS = ("s_agg", "ed_hist")

_STAGE_COLLECTING = "collecting"
_STAGE_FOLD = "fold"
_STAGE_MERGE = "merge"  # ed_hist second step
_STAGE_FINALIZE = "finalize"
_STAGE_DONE = "done"


@dataclass
class CoordinatorStats:
    """Observable scheduling counters (mirrors ProtocolStats fields the
    fleet tests assert on)."""

    aggregation_rounds: int = 0
    partitions_processed: int = 0
    reassigned_partitions: int = 0
    participants: set[str] = field(default_factory=set)


class QueryCoordinator:
    """Scheduler for one fleet-mode query on the SSI."""

    def __init__(
        self,
        ssi: SupportingServerInfrastructure,
        query_id: str,
        meta: QueryMeta,
        partition_timeout: float = 5.0,
        seed: int = 0,
    ) -> None:
        if meta.protocol not in SUPPORTED_PROTOCOLS:
            raise ProtocolError(
                f"no coordinator for protocol {meta.protocol!r}; supported: "
                f"{', '.join(SUPPORTED_PROTOCOLS)}"
            )
        self.ssi = ssi
        self.query_id = query_id
        self.meta = meta
        self.partition_timeout = meta.param("partition_timeout", partition_timeout)
        self.stats = CoordinatorStats()
        # Partition shapes never affect aggregate results (merging is
        # associative); the seed only fixes the shuffle for replayability.
        self._rng = random.Random(seed)
        self._stage = _STAGE_COLLECTING
        self._tracker: PartitionTracker | None = None
        self._round_outputs: list[EncryptedPartial] = []
        self._round_items: list[Item] = []
        self._next_partition_id = 0
        self._sagg_partition_size = max(2, round(self.meta.param("alpha", 3.6)))
        self._first_step_size = int(self.meta.param("first_step_partition_size", 64))
        self._filter_size = int(self.meta.param("filter_partition_size", 64))

    # ------------------------------------------------------------------ #
    # scheduling interface (called by the server dispatcher)
    # ------------------------------------------------------------------ #
    def done(self) -> bool:
        return self._stage == _STAGE_DONE

    def assignable(self, now: float) -> int:
        """How many partitions :meth:`next_work` could hand out right
        now — what the dispatcher releases parked devices by.  Aggregation
        starts here once the collection is closed, and expired
        assignments are reclaimed first."""
        if self._stage == _STAGE_COLLECTING:
            if not self.ssi.collection_closed(self.query_id):
                return 0
            self._start_aggregation()
        if self._stage == _STAGE_DONE or self._tracker is None:
            return 0
        expired = self._tracker.expire(now)
        if expired:
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
        kind = self._work_kind()
        return WorkUnit(self.query_id, kind, partition.partition_id, partition.items)

    def complete(
        self,
        partition_id: int,
        tds_id: str,
        result_kind: int,
        partials: list[EncryptedPartial],
        rows: list[bytes],
    ) -> None:
        """Record one partition's result; advances the stage when the
        current tracker drains.  Duplicate completions (a reassignment
        race) are dropped — partial folding is idempotent per partition.
        So are *stale* completions: partition ids are coordinator-unique
        across rounds (:meth:`_renumber`), so an id the current tracker
        never issued is a timed-out TDS finally replying after the round
        advanced — dropping it (rather than erroring) keeps slow-but-
        healthy workers polling."""
        if self._tracker is None or not self._tracker.knows(partition_id):
            return
        if self._tracker.is_done(partition_id):
            return
        expected = RESULT_ROWS if self._stage == _STAGE_FINALIZE else RESULT_PARTIALS
        if result_kind != expected:
            raise ProtocolError(
                f"stage {self._stage!r} expects result kind {expected}, "
                f"got {result_kind}"
            )
        self._tracker.complete(partition_id, tds_id)
        self.stats.partitions_processed += 1
        self.stats.participants.add(tds_id)
        if self._stage == _STAGE_FINALIZE:
            self.ssi.store_result_rows(self.query_id, rows)
        else:
            self._round_outputs.extend(partials)
            self.ssi.submit_partials(self.query_id, partials)
        if self._tracker.all_done():
            self._advance()

    # ------------------------------------------------------------------ #
    # stage machine
    # ------------------------------------------------------------------ #
    def _work_kind(self) -> int:
        if self._stage == _STAGE_FINALIZE:
            return WORK_FINALIZE
        if self.meta.protocol == "s_agg":
            return WORK_FOLD
        return WORK_FOLD_PER_GROUP

    def _start_aggregation(self) -> None:
        items: list[Item] = list(self.ssi.covering_result(self.query_id))
        if not items:
            # Nothing was collected: publish an empty result rather than
            # stalling every poller forever.
            self.ssi.publish_result(self.query_id)
            self._stage = _STAGE_DONE
            return
        self._stage = _STAGE_FOLD
        self._open_round(items)

    def _open_round(self, items: list[Item]) -> None:
        if not items:
            # A stage produced nothing to process (e.g. partitions that
            # held only dummies): publish what the SSI has instead of
            # stalling every poller forever.
            self.ssi.publish_result(self.query_id)
            self._stage = _STAGE_DONE
            self._tracker = None
            return
        self._round_items = items
        self._round_outputs = []
        if self._stage == _STAGE_FINALIZE:
            partitioner: RandomPartitioner | TagPartitioner = RandomPartitioner(
                self._filter_size, self._rng
            )
        elif self.meta.protocol == "s_agg":
            partitioner = RandomPartitioner(self._sagg_partition_size, self._rng)
        elif self._stage == _STAGE_FOLD:
            partitioner = TagPartitioner(max_partition_size=self._first_step_size)
        else:  # ed_hist merge step
            partitioner = TagPartitioner()
        partitions = self._renumber(partitioner.partition(items))
        self._tracker = PartitionTracker(partitions, self.partition_timeout)

    def _renumber(self, partitions: list[Partition]) -> list[Partition]:
        """Coordinator-unique partition ids across all rounds, so a stale
        submit from a previous round can never alias a live partition."""
        renumbered = []
        for partition in partitions:
            renumbered.append(Partition(self._next_partition_id, partition.items))
            self._next_partition_id += 1
        return renumbered

    def _advance(self) -> None:
        outputs = list(self._round_outputs)
        self.ssi.take_partials(self.query_id)  # drained into the next stage
        if self._stage == _STAGE_FINALIZE:
            self.ssi.publish_result(self.query_id)
            self._stage = _STAGE_DONE
            self._tracker = None
            return
        self.stats.aggregation_rounds += 1
        if self.meta.protocol == "s_agg":
            if len(outputs) <= 1:
                self._stage = _STAGE_FINALIZE
            self._open_round(list(outputs))
            return
        # ed_hist: fold -> merge -> finalize
        if self._stage == _STAGE_FOLD:
            self._stage = _STAGE_MERGE
        elif self._stage == _STAGE_MERGE:
            self._stage = _STAGE_FINALIZE
        self._open_round(list(outputs))
