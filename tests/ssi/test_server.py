"""SSI server, storage and partition-tracker tests."""

import pytest

from repro.core.messages import (
    Credential,
    EncryptedTuple,
    EncryptedTupleBlock,
    Partition,
    QueryEnvelope,
)
from repro.exceptions import ProtocolError
from repro.ssi.server import SupportingServerInfrastructure
from repro.ssi.storage import PartitionTracker


def make_envelope(query_id="q1", size_tuples=None, size_seconds=None):
    return QueryEnvelope(
        query_id=query_id,
        encrypted_query=b"ciphertext",
        credential=Credential("q", frozenset({"public"}), b"sig"),
        size_tuples=size_tuples,
        size_seconds=size_seconds,
    )


def tuples(n):
    return [EncryptedTuple(payload=bytes(64)) for __ in range(n)]


def items(*payloads):
    """Untagged partials or result rows, as one block."""
    return EncryptedTupleBlock.from_tuples([EncryptedTuple(p) for p in payloads])


class TestSSICollection:
    def test_post_and_submit(self):
        ssi = SupportingServerInfrastructure()
        ssi.post_query(make_envelope())
        ssi.submit_tuples("q1", tuples(3))
        assert ssi.collected_count("q1") == 3

    def test_duplicate_query_id_rejected(self):
        ssi = SupportingServerInfrastructure()
        ssi.post_query(make_envelope())
        with pytest.raises(ProtocolError):
            ssi.post_query(make_envelope())

    def test_unknown_query_rejected(self):
        ssi = SupportingServerInfrastructure()
        with pytest.raises(ProtocolError):
            ssi.submit_tuples("nope", tuples(1))

    def test_size_clause_tuples(self):
        ssi = SupportingServerInfrastructure()
        ssi.post_query(make_envelope(size_tuples=5))
        ssi.submit_tuples("q1", tuples(3))
        assert not ssi.evaluate_size_clause("q1")
        assert [e.query_id for e in ssi.active_queries()] == ["q1"]
        ssi.submit_tuples("q1", tuples(2))
        assert ssi.evaluate_size_clause("q1")
        assert ssi.collection_closed("q1") and ssi.active_queries() == []

    def test_size_clause_seconds(self):
        ssi = SupportingServerInfrastructure()
        ssi.post_query(make_envelope(size_seconds=60))
        assert not ssi.evaluate_size_clause("q1", elapsed_seconds=30)
        assert ssi.evaluate_size_clause("q1", elapsed_seconds=60)

    def test_no_size_clause_never_self_closes(self):
        ssi = SupportingServerInfrastructure()
        ssi.post_query(make_envelope())
        ssi.submit_tuples("q1", tuples(100))
        assert not ssi.evaluate_size_clause("q1", elapsed_seconds=1e9)

    def test_late_arrivals_dropped_after_close(self):
        ssi = SupportingServerInfrastructure()
        ssi.post_query(make_envelope())
        ssi.submit_tuples("q1", tuples(2))
        ssi.close_collection("q1")
        ssi.submit_tuples("q1", tuples(5))
        assert ssi.collected_count("q1") == 2


class TestSSIResults:
    def test_result_lifecycle(self):
        ssi = SupportingServerInfrastructure()
        ssi.post_query(make_envelope())
        ssi.store_result_rows("q1", items(b"row1", b"row2"))
        assert not ssi.result_ready("q1")
        with pytest.raises(ProtocolError):
            ssi.fetch_result("q1")
        ssi.publish_result("q1")
        result = ssi.fetch_result("q1")
        assert [t.payload for t in result.block.tuples()] == [b"row1", b"row2"]

    def test_partial_store_drain(self):
        ssi = SupportingServerInfrastructure()
        ssi.post_query(make_envelope())
        ssi.submit_partials("q1", items(b"p1", b"p2"))
        assert ssi.partial_count("q1") == 2
        drained = ssi.take_partials("q1")
        assert EncryptedTupleBlock.concat(drained) == items(b"p1", b"p2")
        assert ssi.partial_count("q1") == 0


class TestObserverIntegration:
    def test_observer_records_everything(self):
        ssi = SupportingServerInfrastructure()
        ssi.post_query(make_envelope())
        ssi.submit_tuples("q1", [EncryptedTuple(bytes(64), group_tag=b"t1")])
        ssi.submit_partials("q1", EncryptedTupleBlock.from_tuples(
            [EncryptedTuple(bytes(32), group_tag=b"t1")]
        ))
        ssi.store_result_rows("q1", items(b"row"))
        assert ssi.observer.distinct_payloads_seen("q1") == 3
        assert ssi.observer.tag_frequencies("q1")[b"t1"] == 1

    def test_untagged_items_invisible_to_frequency_attack(self):
        ssi = SupportingServerInfrastructure()
        ssi.post_query(make_envelope())
        ssi.submit_tuples("q1", tuples(10))
        assert ssi.observer.tag_frequencies("q1") == {}


class TestPartitionTracker:
    def _partitions(self, n):
        one = EncryptedTupleBlock.from_tuples([EncryptedTuple(bytes(8))])
        return [Partition(i, one) for i in range(n)]

    def test_assign_and_complete(self):
        tracker = PartitionTracker(self._partitions(2))
        p = tracker.assign_next("tds-1")
        assert p is not None
        tracker.complete(p.partition_id, "tds-1")
        assert tracker.done_count() == 1
        assert not tracker.all_done()

    def test_assign_exhaustion(self):
        tracker = PartitionTracker(self._partitions(1))
        assert tracker.assign_next("a") is not None
        assert tracker.assign_next("b") is None

    def test_timeout_reassignment(self):
        tracker = PartitionTracker(self._partitions(1), timeout=10)
        p = tracker.assign_next("dying-tds", now=0)
        assert tracker.expire(now=5) == []
        expired = tracker.expire(now=10)
        assert [e.partition_id for e in expired] == [p.partition_id]
        p2 = tracker.assign_next("healthy-tds", now=10)
        assert p2.partition_id == p.partition_id
        tracker.complete(p2.partition_id, "healthy-tds")
        assert tracker.all_done()

    def test_duplicate_completion_ignored(self):
        tracker = PartitionTracker(self._partitions(1))
        p = tracker.assign_next("a")
        tracker.complete(p.partition_id, "a")
        tracker.complete(p.partition_id, "a")  # no error
        assert tracker.all_done()

    def test_unknown_partition_rejected(self):
        tracker = PartitionTracker(self._partitions(1))
        with pytest.raises(ProtocolError):
            tracker.complete(99, "a")
