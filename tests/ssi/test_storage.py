"""QueryStorage flattening cache and PartitionTracker O(1) counters."""

from repro.core.messages import EncryptedTuple, EncryptedTupleBlock, Partition
from repro.ssi.storage import PartitionTracker, QueryStorage


def make_block(*payloads):
    offsets, buf = [0], b""
    for p in payloads:
        buf += p
        offsets.append(len(buf))
    return EncryptedTupleBlock(
        payloads=buf, offsets=tuple(offsets), tags=(None,) * len(payloads)
    )


class TestAllCollectedCache:
    def test_cached_between_appends(self):
        storage = QueryStorage()
        storage.append_block(make_block(b"a"))
        storage.append_block(make_block(b"bb", b"ccc"))
        first = storage.all_collected()
        assert [t.payload for t in first] == [b"a", b"bb", b"ccc"]
        # The memo is reused: identical element objects, fresh list.
        second = storage.all_collected()
        assert second == first
        assert second is not first
        assert all(x is y for x, y in zip(first, second))

    def test_appends_invalidate(self):
        storage = QueryStorage()
        storage.append_block(make_block(b"a"))
        assert len(storage.all_collected()) == 1
        storage.append_block(make_block(b"bb"))
        assert len(storage.all_collected()) == 2
        storage.append_block(make_block(b"c"))
        # arrival order, the order the observer saw them in
        assert [t.payload for t in storage.all_collected()] == [
            b"a",
            b"bb",
            b"c",
        ]

    def test_callers_cannot_corrupt_the_memo(self):
        storage = QueryStorage()
        storage.append_block(make_block(b"a"))
        view = storage.all_collected()
        view.append(EncryptedTuple(b"injected"))
        assert len(storage.all_collected()) == 1

    def test_count_matches_flattened_length(self):
        storage = QueryStorage()
        storage.append_block(make_block(b"x", b"y"))
        storage.append_block(make_block(b"z"))
        assert storage.collected_count() == 3
        assert storage.collected_count() == len(storage.all_collected())


class TestPartitionTrackerCounters:
    def make_tracker(self, n=4, timeout=10.0):
        partitions = [
            Partition(partition_id=i, items=(EncryptedTuple(b"p"),))
            for i in range(n)
        ]
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
