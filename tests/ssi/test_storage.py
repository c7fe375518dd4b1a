"""The covering result as one block, and PartitionTracker's O(1)
counters and O(log n) hand-out order."""

import time

from repro.core.messages import (
    Credential,
    EncryptedTupleBlock,
    Partition,
    QueryEnvelope,
)
from repro.ssi.server import SupportingServerInfrastructure
from repro.ssi.storage import PartitionTracker


def make_block(*payloads):
    offsets, buf = [0], b""
    for p in payloads:
        buf += p
        offsets.append(len(buf))
    return EncryptedTupleBlock(
        payloads=buf, offsets=tuple(offsets), tags=(None,) * len(payloads)
    )


def covering(*blocks):
    ssi = SupportingServerInfrastructure()
    ssi.post_query(QueryEnvelope("q1", b"enc", Credential("c", frozenset(), b"")))
    for block in blocks:
        ssi.submit_tuple_block("q1", block)
    return ssi


class TestCoveringResult:
    def test_stored_blocks_joined_in_arrival_order(self):
        ssi = covering(make_block(b"a"), make_block(b"bb", b"ccc"))
        block = ssi.covering_result("q1")
        assert block.payloads == b"abbccc"
        assert block.offsets == (0, 1, 3, 6)
        assert [t.payload for t in block.tuples()] == [b"a", b"bb", b"ccc"]

    def test_appends_extend_the_next_covering_result(self):
        ssi = covering(make_block(b"a"))
        assert len(ssi.covering_result("q1")) == 1
        ssi.submit_tuple_block("q1", make_block(b"bb"))
        ssi.submit_tuple_block("q1", make_block(b"c"))
        # arrival order, the order the observer saw them in
        assert [t.payload for t in ssi.covering_result("q1").tuples()] == [
            b"a",
            b"bb",
            b"c",
        ]

    def test_earlier_covering_result_unchanged_by_appends(self):
        ssi = covering(make_block(b"a"), make_block(b"b"))
        before = ssi.covering_result("q1")
        ssi.submit_tuple_block("q1", make_block(b"late"))
        assert before.payloads == b"ab" and len(before) == 2

    def test_count_matches_covering_result(self):
        ssi = covering(make_block(b"x", b"y"), make_block(b"z"))
        assert ssi.collected_count("q1") == 3
        assert ssi.collected_count("q1") == len(ssi.covering_result("q1"))


class TestPartitionTrackerCounters:
    def make_tracker(self, n=4, timeout=10.0):
        partitions = [Partition(partition_id=i, block=make_block(b"p")) for i in range(n)]
        return PartitionTracker(partitions, timeout=timeout)

    def test_counters_track_the_full_lifecycle(self):
        tracker = self.make_tracker(3)
        assert (tracker.pending_count(), tracker.done_count()) == (3, 0)
        p0 = tracker.assign_next("tds-a", now=0.0)
        assert tracker.pending_count() == 2
        tracker.complete(p0.partition_id, "tds-a")
        assert (tracker.pending_count(), tracker.done_count()) == (2, 1)
        p1 = tracker.assign_next("tds-b", now=0.0)
        p2 = tracker.assign_next("tds-c", now=0.0)
        assert tracker.pending_count() == 0
        assert tracker.assign_next("tds-d", now=0.0) is None
        # Both assignees time out: their partitions flip back to pending.
        expired = tracker.expire(now=99.0)
        assert {p.partition_id for p in expired} == {
            p1.partition_id,
            p2.partition_id,
        }
        assert tracker.pending_count() == 2
        assert not tracker.all_done()

    def test_late_completion_after_expiry(self):
        tracker = self.make_tracker(1)
        p = tracker.assign_next("tds-a", now=0.0)
        tracker.expire(now=99.0)  # back to pending
        assert tracker.pending_count() == 1
        tracker.complete(p.partition_id, "tds-a")  # straggler still counts
        assert (tracker.pending_count(), tracker.done_count()) == (0, 1)
        assert tracker.all_done()

    def test_duplicate_completion_is_counted_once(self):
        tracker = self.make_tracker(2)
        p = tracker.assign_next("tds-a", now=0.0)
        tracker.complete(p.partition_id, "tds-a")
        tracker.complete(p.partition_id, "tds-b")  # reassignment race
        assert tracker.done_count() == 1
        assert tracker.pending_count() == 1

    def test_expire_skips_the_scan_until_a_deadline_can_have_passed(self):
        """expire() keeps a lower bound on live deadlines; the bound may
        go stale (a completed assignment) but never hides an expiry."""
        tracker = self.make_tracker(3, timeout=10.0)
        assert tracker.expire(now=1e9) == []  # nothing assigned yet
        p0 = tracker.assign_next("tds-a", now=0.0)   # deadline 10
        p1 = tracker.assign_next("tds-b", now=5.0)   # deadline 15
        assert tracker.expire(now=9.9) == []
        tracker.complete(p0.partition_id, "tds-a")   # bound (10) is stale now
        assert tracker.expire(now=12.0) == []        # one scan, bound -> 15
        assert tracker._earliest_deadline == 15.0
        assert tracker.expire(now=14.9) == []
        assert [p.partition_id for p in tracker.expire(now=15.0)] == [
            p1.partition_id
        ]
        assert tracker.pending_count() == 2
        # reassigned: a new deadline, found again
        again = tracker.assign_next("tds-c", now=20.0)
        assert again.partition_id == p1.partition_id
        assert tracker.expire(now=29.9) == []
        assert len(tracker.expire(now=30.0)) == 1


class TestPartitionTrackerOrder:
    """Lowest-index pending partition first; an expired partition is
    re-offered in its original place, not at the back."""

    IDS = [40, 7, 13, 2, 99]  # ids, not positions, are arbitrary

    def make_tracker(self, timeout=10.0):
        block = make_block(b"p")
        return PartitionTracker(
            [Partition(i, block) for i in self.IDS], timeout=timeout
        )

    def handed_out(self, tracker, n, now):
        return [tracker.assign_next("tds", now).partition_id for _ in range(n)]

    def test_order_survives_expiry_and_stragglers(self):
        tracker = self.make_tracker()
        assert self.handed_out(tracker, 3, now=0.0) == [40, 7, 13]
        assert self.handed_out(tracker, 1, now=5.0) == [2]
        assert [p.partition_id for p in tracker.expire(now=10.0)] == [40, 7, 13]
        tracker.complete(7, "tds")  # a straggler finishes a pending one
        assert self.handed_out(tracker, 3, now=10.0) == [40, 13, 99]
        assert tracker.assign_next("tds", 10.0) is None
        assert [p.partition_id for p in tracker.expire(now=15.0)] == [2]
        assert self.handed_out(tracker, 1, now=15.0) == [2]
        assert tracker.assign_next("tds", 15.0) is None

    def test_expired_partition_goes_before_later_ones(self):
        tracker = self.make_tracker()
        assert self.handed_out(tracker, 2, now=0.0) == [40, 7]
        tracker.complete(40, "tds")
        tracker.expire(now=10.0)  # 7 is back, ahead of 13
        assert self.handed_out(tracker, 4, now=10.0) == [7, 13, 2, 99]

    def test_twenty_thousand_hand_outs_under_a_second(self):
        block = make_block(b"p")
        n = 20_000
        tracker = PartitionTracker([Partition(i, block) for i in range(n)])
        started = time.perf_counter()
        ids = [tracker.assign_next("tds").partition_id for _ in range(n)]
        elapsed = time.perf_counter() - started
        assert ids == list(range(n))
        assert tracker.assign_next("tds") is None
        assert elapsed < 1.0, f"{n} hand-outs took {elapsed:.2f} s"
