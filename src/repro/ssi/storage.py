"""SSI temporary storage and partition lifecycle tracking.

The SSI stores (a) the Covering Result of the collection phase, (b) the
encrypted partial aggregations flowing through the aggregation phase and
(c) the final k1-encrypted result rows.  It also tracks which partition is
assigned to which TDS so that "if a TDS goes offline in the middle of
processing a partition, SSI resends that partition to another available
TDS after a given timeout" (§3.2, Correctness).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from repro.core.messages import (
    EncryptedPartial,
    EncryptedTuple,
    EncryptedTupleBlock,
    Partition,
)
from repro.exceptions import ProtocolError


class PartitionState(enum.Enum):
    PENDING = "pending"
    ASSIGNED = "assigned"
    DONE = "done"


@dataclass
class _TrackedPartition:
    partition: Partition
    state: PartitionState = PartitionState.PENDING
    assignee: str | None = None
    deadline: float | None = None


class PartitionTracker:
    """Assignment + timeout bookkeeping for one batch of partitions."""

    def __init__(self, partitions: list[Partition], timeout: float = 60.0) -> None:
        self.timeout = timeout
        self._tracked = {p.partition_id: _TrackedPartition(p) for p in partitions}
        # Maintained on every state transition so pending_count /
        # done_count / all_done are O(1) — the dispatcher consults them
        # on every request for work.
        self._pending = len(self._tracked)
        self._done = 0
        # Lower bound on the deadlines of live assignments (a completed
        # assignment may leave it stale, which costs one scan): lets
        # expire() answer "nothing yet" without walking the partitions.
        self._earliest_deadline = math.inf

    def assign_next(self, tds_id: str, now: float = 0.0) -> Partition | None:
        """Hand the next pending partition to *tds_id* (None when all are
        assigned or done)."""
        if self._pending == 0:
            return None
        for tracked in self._tracked.values():
            if tracked.state is PartitionState.PENDING:
                tracked.state = PartitionState.ASSIGNED
                tracked.assignee = tds_id
                tracked.deadline = now + self.timeout
                self._earliest_deadline = min(
                    self._earliest_deadline, tracked.deadline
                )
                self._pending -= 1
                return tracked.partition
        return None

    def complete(self, partition_id: int, tds_id: str) -> None:
        tracked = self._tracked.get(partition_id)
        if tracked is None:
            raise ProtocolError(f"unknown partition {partition_id}")
        if tracked.state is PartitionState.DONE:
            return  # duplicate completion after a reassignment race: ignore
        if tracked.assignee != tds_id and tracked.state is PartitionState.ASSIGNED:
            # A reassigned partition may legitimately complete from either
            # assignee; accept the work (results are idempotent).
            pass
        if tracked.state is PartitionState.PENDING:
            # Completed by a worker whose assignment already expired.
            self._pending -= 1
        tracked.state = PartitionState.DONE
        self._done += 1

    def expire(self, now: float) -> list[Partition]:
        """Return partitions whose assignee timed out, flipping them back
        to pending (they will be handed to another TDS)."""
        if now < self._earliest_deadline:
            return []
        expired = []
        earliest = math.inf
        for tracked in self._tracked.values():
            if (
                tracked.state is not PartitionState.ASSIGNED
                or tracked.deadline is None
            ):
                continue
            if now >= tracked.deadline:
                tracked.state = PartitionState.PENDING
                tracked.assignee = None
                tracked.deadline = None
                self._pending += 1
                expired.append(tracked.partition)
            else:
                earliest = min(earliest, tracked.deadline)
        self._earliest_deadline = earliest
        return expired

    def knows(self, partition_id: int) -> bool:
        """Whether this tracker ever issued *partition_id* — false for
        stale ids from a previous round's tracker."""
        return partition_id in self._tracked

    def is_done(self, partition_id: int) -> bool:
        """Whether a specific partition has completed (used to drop the
        duplicate results a reassignment race can produce)."""
        tracked = self._tracked.get(partition_id)
        if tracked is None:
            raise ProtocolError(f"unknown partition {partition_id}")
        return tracked.state is PartitionState.DONE

    def all_done(self) -> bool:
        return self._done == len(self._tracked)

    def pending_count(self) -> int:
        return self._pending

    def done_count(self) -> int:
        return self._done


@dataclass
class QueryStorage:
    """All SSI-side state for one query.

    Collected tuples arrive either as individual :class:`EncryptedTuple`
    objects (``collected``) or as columnar :class:`EncryptedTupleBlock`
    batches (``collected_blocks``); the batched path defers per-tuple
    materialization until the aggregation phase reads the covering
    result."""

    collected: list[EncryptedTuple] = field(default_factory=list)
    collected_blocks: list[EncryptedTupleBlock] = field(default_factory=list)
    partials: list[EncryptedPartial] = field(default_factory=list)
    result_rows: list[bytes] = field(default_factory=list)
    collection_closed: bool = False
    result_ready: bool = False
    #: memoized flattened covering result; append_tuple/append_block
    #: invalidate it, so repeated all_collected() calls during the
    #: aggregation phase stop re-materializing every block
    _flat: list[EncryptedTuple] | None = field(
        default=None, repr=False, compare=False
    )

    def append_tuple(self, item: EncryptedTuple) -> None:
        self.collected.append(item)
        self._flat = None

    def append_block(self, block: EncryptedTupleBlock) -> None:
        self.collected_blocks.append(block)
        self._flat = None

    def collected_count(self) -> int:
        return len(self.collected) + sum(len(b) for b in self.collected_blocks)

    def all_collected(self) -> list[EncryptedTuple]:
        """Materialize the full covering result (per-tuple objects first,
        then blocks, each in arrival order).  The flattened view is
        cached until the next append; callers get a fresh list each time
        (copying references is cheap — decoding blocks is not)."""
        if self._flat is None:
            items = list(self.collected)
            for block in self.collected_blocks:
                items.extend(block.tuples())
            self._flat = items
        return list(self._flat)
