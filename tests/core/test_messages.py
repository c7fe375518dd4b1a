"""Message envelope tests."""

from repro.core.messages import (
    Credential,
    EncryptedTuple,
    EncryptedTupleBlock,
    Partition,
    QueryResult,
    TupleContent,
    fresh_query_id,
)


class TestCredential:
    def test_signing_payload_stable(self):
        a = Credential("edf", frozenset({"b", "a"}), b"")
        b = Credential("edf", frozenset({"a", "b"}), b"")
        assert a.signing_payload() == b.signing_payload()

    def test_signing_payload_binds_subject_and_roles(self):
        base = Credential("edf", frozenset({"r"}), b"").signing_payload()
        assert Credential("other", frozenset({"r"}), b"").signing_payload() != base
        assert Credential("edf", frozenset({"x"}), b"").signing_payload() != base


class TestPartition:
    def test_byte_size_sums_payloads(self):
        block = EncryptedTupleBlock.from_tuples(
            [EncryptedTuple(bytes(10)), EncryptedTuple(bytes(22), group_tag=b"t")]
        )
        assert Partition(0, block).byte_size() == 32

    def test_empty_partition(self):
        assert Partition(1, EncryptedTupleBlock.from_tuples([])).byte_size() == 0


class TestBlockViews:
    BLOCK = EncryptedTupleBlock.from_tuples(
        [EncryptedTuple(b"aa", b"t"), EncryptedTuple(b""), EncryptedTuple(b"cccc", b"u")]
    )

    def test_segments_are_views_into_the_buffer(self):
        segments = self.BLOCK.segments()
        assert [bytes(s) for s in segments] == [b"aa", b"", b"cccc"]
        assert all(s.obj is self.BLOCK.payloads for s in segments)

    def test_gather_joins_the_picked_payloads_untagged(self):
        picked = self.BLOCK.gather([2, 0, 2])
        assert picked.payloads == b"ccccaacccc"
        assert picked.offsets == (0, 4, 6, 10)
        assert picked.tags == (None, None, None)
        assert self.BLOCK.gather([]) == EncryptedTupleBlock.from_tuples([])


class TestQueryIds:
    def test_fresh_ids_unique(self):
        ids = {fresh_query_id() for __ in range(100)}
        assert len(ids) == 100

    def test_prefix(self):
        assert fresh_query_id("zz").startswith("zz")


class TestQueryResult:
    def test_holds_rows(self):
        rows = EncryptedTupleBlock.from_tuples([EncryptedTuple(b"a"), EncryptedTuple(b"b")])
        result = QueryResult("q1", rows)
        assert result.query_id == "q1"
        assert len(result.block) == 2


class TestTupleContentDefaults:
    def test_default_row_empty(self):
        assert TupleContent(TupleContent.KIND_DUMMY).row == {}

    def test_kind_constants_distinct(self):
        kinds = {
            TupleContent.KIND_DATA,
            TupleContent.KIND_DUMMY,
            TupleContent.KIND_FAKE,
        }
        assert len(kinds) == 3
