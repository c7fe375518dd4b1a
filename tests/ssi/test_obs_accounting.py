"""Satellite: lazy observer expansion and block accounting.

The batched collection path stores columnar blocks (O(1) per block) and
defers both per-tuple Observation objects and per-tuple EncryptedTuple
materialization.  These tests pin down the equivalences that make the
laziness invisible: observer log, collected counts and covering result
must be identical whether contributions arrive tuple-by-tuple or as
blocks, and the covering result is the order the observer saw.
"""

from repro.core.messages import (
    Credential,
    EncryptedTuple,
    EncryptedTupleBlock,
    QueryEnvelope,
)
from repro.ssi.observer import Observer
from repro.ssi.server import SupportingServerInfrastructure


def make_tuples(tag_sizes):
    return [
        EncryptedTuple(payload=bytes(size), group_tag=tag)
        for tag, size in tag_sizes
    ]


def envelope(query_id="q1"):
    return QueryEnvelope(
        query_id=query_id,
        encrypted_query=b"\x01ciphertext",
        credential=Credential("alice", frozenset({"public"}), b"sig"),
        size_tuples=None,
        size_seconds=None,
    )


class TestObserverRecordBlock:
    def test_block_expands_to_identical_observations(self):
        tuples = make_tuples([(b"t1", 8), (None, 16), (b"t1", 8), (b"t2", 24)])
        sequential = Observer()
        for t in tuples:
            sequential.record("q", "collection", len(t.payload), t.group_tag)
        batched = Observer()
        block = EncryptedTupleBlock.from_tuples(tuples)
        batched.record_block("q", "collection", block.offsets, block.tags)
        assert batched.observations == sequential.observations

    def test_expansion_is_lazy_and_cached(self):
        obs = Observer()
        block = EncryptedTupleBlock.from_tuples(make_tuples([(b"t", 4)] * 3))
        obs.record_block("q", "collection", block.offsets, block.tags)
        # Nothing materialized yet: the entry is still the compact form.
        assert len(obs._entries) == 1
        assert obs._flat is None
        first = obs.observations
        assert len(first) == 3
        assert obs.observations is first  # cached until the next record
        obs.record("q", "collection", 4, b"t")
        assert obs._flat is None  # new record invalidates the cache
        assert len(obs.observations) == 4

    def test_interleaved_order_is_arrival_order(self):
        obs = Observer()
        obs.record("q", "collection", 1, b"a")
        block = EncryptedTupleBlock.from_tuples(
            make_tuples([(b"b", 2), (b"c", 3)])
        )
        obs.record_block("q", "collection", block.offsets, block.tags)
        obs.record("q", "collection", 4, b"d")
        assert [(o.group_tag, o.payload_size) for o in obs.observations] == [
            (b"a", 1),
            (b"b", 2),
            (b"c", 3),
            (b"d", 4),
        ]

    def test_attack_metrics_agree_across_paths(self):
        tag_sizes = [(b"north", 32)] * 3 + [(b"south", 32)] * 2 + [(None, 32)]
        tuples = make_tuples(tag_sizes)
        sequential, batched = Observer(), Observer()
        for t in tuples:
            sequential.record("q", "collection", len(t.payload), t.group_tag)
        block = EncryptedTupleBlock.from_tuples(tuples)
        batched.record_block("q", "collection", block.offsets, block.tags)
        assert batched.tag_frequencies("q") == sequential.tag_frequencies("q")
        assert batched.payload_size_frequencies(
            "q"
        ) == sequential.payload_size_frequencies("q")
        assert batched.distinct_payloads_seen(
            "q"
        ) == sequential.distinct_payloads_seen("q")


class TestInterleavedStorageAccounting:
    def test_counts_and_covering_result_across_paths(self):
        ssi = SupportingServerInfrastructure()
        ssi.post_query(envelope("q1"))
        seq_a = make_tuples([(b"t1", 8), (b"t2", 8)])
        batch_one = make_tuples([(b"t1", 8)] * 3)
        seq_b = make_tuples([(None, 8)])
        batch_two = make_tuples([(b"t2", 8)] * 2)

        ssi.submit_tuples("q1", seq_a)
        ssi.submit_tuple_block("q1", EncryptedTupleBlock.from_tuples(batch_one))
        ssi.submit_tuples("q1", seq_b)
        ssi.submit_tuple_block("q1", EncryptedTupleBlock.from_tuples(batch_two))

        assert ssi.collected_count("q1") == 8
        storage = ssi._storage["q1"]
        assert len(storage.collected_blocks) == 4  # one per submission
        # Materialization order: arrival order, the observer's — and
        # every payload survives byte-identically.
        result = ssi.covering_result("q1")
        assert len(result) == 8
        expected = seq_a + batch_one + seq_b + batch_two
        assert [(t.payload, t.group_tag) for t in result] == [
            (t.payload, t.group_tag) for t in expected
        ]
        # The observer saw all 8, in true arrival order.
        assert ssi.observer.distinct_payloads_seen("q1") == 8
        tags = [o.group_tag for o in ssi.observer.observations]
        assert tags == [b"t1", b"t2", b"t1", b"t1", b"t1", None, b"t2", b"t2"]

    def test_late_blocks_dropped_after_close_consistently(self):
        ssi = SupportingServerInfrastructure()
        ssi.post_query(envelope("q1"))
        ssi.submit_tuples("q1", make_tuples([(b"t", 8)]))
        ssi.close_collection("q1")
        ssi.submit_tuples("q1", make_tuples([(b"t", 8)]))
        ssi.submit_tuple_block(
            "q1", EncryptedTupleBlock.from_tuples(make_tuples([(b"t", 8)] * 5))
        )
        assert ssi.collected_count("q1") == 1
        assert ssi.observer.distinct_payloads_seen("q1") == 1

    def test_size_clause_counts_blocks(self):
        env = envelope("q1")
        env = QueryEnvelope(
            query_id=env.query_id,
            encrypted_query=env.encrypted_query,
            credential=env.credential,
            size_tuples=4,
            size_seconds=None,
        )
        ssi = SupportingServerInfrastructure()
        ssi.post_query(env)
        ssi.submit_tuples("q1", make_tuples([(b"t", 8)]))
        assert not ssi.evaluate_size_clause("q1")
        ssi.submit_tuple_block(
            "q1", EncryptedTupleBlock.from_tuples(make_tuples([(b"t", 8)] * 3))
        )
        assert ssi.evaluate_size_clause("q1")
        assert ssi.collection_closed("q1")
