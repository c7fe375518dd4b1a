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
import heapq
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.messages import EncryptedTupleBlock, Partition, QueryEnvelope
from repro.exceptions import ProtocolError

if TYPE_CHECKING:  # the SSI stores a meta, it never reads one
    from repro.net.frames import QueryMeta


class PartitionState(enum.Enum):
    PENDING = "pending"
    ASSIGNED = "assigned"
    DONE = "done"


@dataclass
class _TrackedPartition:
    partition: Partition
    #: position in the batch: pending partitions are handed out lowest
    #: index first, and an expired one is re-offered in its place
    index: int
    state: PartitionState = PartitionState.PENDING
    assignee: str | None = None
    deadline: float | None = None


class PartitionTracker:
    """Assignment + timeout bookkeeping for one batch of partitions."""

    def __init__(self, partitions: list[Partition], timeout: float = 60.0) -> None:
        self.timeout = timeout
        self._order = [
            _TrackedPartition(p, index) for index, p in enumerate(partitions)
        ]
        self._tracked = {t.partition.partition_id: t for t in self._order}
        # Indices of the pending partitions, lowest first: a hand-out is
        # O(log n), not a scan from the first partition.  A straggler
        # may complete a pending partition; its index then stays in the
        # heap until popped and skipped.
        self._heap = list(range(len(self._order)))
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
        """Hand the lowest-index pending partition to *tds_id* (None when
        all are assigned or done)."""
        while self._heap:
            tracked = self._order[heapq.heappop(self._heap)]
            if tracked.state is not PartitionState.PENDING:
                continue  # completed while pending
            tracked.state = PartitionState.ASSIGNED
            tracked.assignee = tds_id
            tracked.deadline = now + self.timeout
            self._earliest_deadline = min(self._earliest_deadline, tracked.deadline)
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
        for tracked in self._order:
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
                heapq.heappush(self._heap, tracked.index)
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
    """All SSI-side state for one query: the one record of a posted query.

    The envelope, the scheduling meta it was posted with (stored as
    given, never interpreted here) and its querybox: ``tds_id`` names
    the one device of a personal querybox, None is the global one.
    Everything collected is kept as the columnar
    :class:`EncryptedTupleBlock`s it arrived as, in arrival order — the
    order the observer saw them in: the covering result one block per
    accepted submission, the partials and the result rows one block per
    partition result."""

    envelope: QueryEnvelope
    meta: QueryMeta | None = None
    tds_id: str | None = None
    collected_blocks: list[EncryptedTupleBlock] = field(default_factory=list)
    partials: list[EncryptedTupleBlock] = field(default_factory=list)
    result_rows: list[EncryptedTupleBlock] = field(default_factory=list)
    collection_closed: bool = False
    result_ready: bool = False

    def append_block(self, block: EncryptedTupleBlock) -> None:
        self.collected_blocks.append(block)

    def collected_count(self) -> int:
        return sum(len(b) for b in self.collected_blocks)
