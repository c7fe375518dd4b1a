"""Partitioner tests: random chunks and tag-grouped partitions, cut over
one block."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import EncryptedTuple, EncryptedTupleBlock
from repro.exceptions import ConfigurationError
from repro.ssi.partitioner import RandomPartitioner, TagPartitioner


def make_items(n, tag_fn=lambda i: None):
    return [EncryptedTuple(payload=bytes([i % 256]) * 8, group_tag=tag_fn(i)) for i in range(n)]


def make_block(n, tag_fn=lambda i: None):
    return EncryptedTupleBlock.from_tuples(make_items(n, tag_fn))


def payloads(part):
    return [bytes(segment) for segment in part.segments()]


class TestRandomPartitioner:
    def test_partition_sizes(self):
        parts = RandomPartitioner(4, random.Random(0)).partition(make_block(10))
        sizes = sorted(len(p) for p in parts)
        assert sizes == [2, 4, 4]

    def test_all_items_preserved(self):
        items = make_items(25)
        block = EncryptedTupleBlock.from_tuples(items)
        parts = RandomPartitioner(7, random.Random(0)).partition(block)
        recovered = [payload for p in parts for payload in payloads(p)]
        assert sorted(recovered) == sorted(i.payload for i in items)

    def test_shuffling_randomizes_order(self):
        items = make_items(50)
        a = RandomPartitioner(50, random.Random(1)).partition(
            EncryptedTupleBlock.from_tuples(items)
        )[0]
        assert payloads(a) != [i.payload for i in items]  # astronomically unlikely to match

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.binary(max_size=12), max_size=40),
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_partitions_are_the_shuffled_item_lists(self, raw, size, seed):
        """Shuffling indices draws what shuffling the items drew: the
        partitions are byte for byte the chunks of
        ``random.Random(seed).shuffle`` of the item list."""
        items = [EncryptedTuple(payload) for payload in raw]
        parts = RandomPartitioner(size, random.Random(seed)).partition(
            EncryptedTupleBlock.from_tuples(items)
        )
        shuffled = list(items)
        random.Random(seed).shuffle(shuffled)
        expected = [shuffled[i : i + size] for i in range(0, len(shuffled), size)]
        assert [payloads(p) for p in parts] == [
            [item.payload for item in chunk] for chunk in expected
        ]

    def test_empty_input(self):
        assert RandomPartitioner(4, random.Random(0)).partition(make_block(0)) == []

    def test_invalid_size_rejected(self):
        with pytest.raises(ConfigurationError):
            RandomPartitioner(0, random.Random(0))

    def test_byte_size(self):
        parts = RandomPartitioner(10, random.Random(0)).partition(make_block(3))
        assert len(parts[0].payloads) == 24


class TestTagPartitioner:
    def test_one_partition_per_tag(self):
        items = make_items(12, tag_fn=lambda i: bytes([i % 3]))
        parts = TagPartitioner().partition(EncryptedTupleBlock.from_tuples(items))
        assert len(parts) == 3
        for p in parts:
            # every item's payload carries its index, and so its tag
            assert len({payload[0] % 3 for payload in payloads(p)}) == 1

    def test_oversized_tag_split(self):
        parts = TagPartitioner(max_partition_size=4).partition(
            make_block(10, tag_fn=lambda i: b"\x00")
        )
        assert len(parts) == 3
        assert sorted(len(p) for p in parts) == [2, 4, 4]

    def test_untagged_items_rejected(self):
        with pytest.raises(ConfigurationError):
            TagPartitioner().partition(make_block(3))

    def test_deterministic_ordering(self):
        block = make_block(9, tag_fn=lambda i: bytes([i % 3]))
        a = TagPartitioner().partition(block)
        b = TagPartitioner().partition(block)
        assert a == b
        assert payloads(a[0]) == [bytes([0]) * 8, bytes([3]) * 8, bytes([6]) * 8]

    def test_empty_input(self):
        assert TagPartitioner().partition(make_block(0)) == []

    def test_invalid_max_size(self):
        with pytest.raises(ConfigurationError):
            TagPartitioner(max_partition_size=0)
