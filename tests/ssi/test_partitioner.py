"""Partitioner tests: random chunks and tag-grouped partitions."""

import random

import pytest

from repro.core.messages import EncryptedTuple
from repro.exceptions import ConfigurationError
from repro.ssi.partitioner import RandomPartitioner, TagPartitioner


def make_items(n, tag_fn=lambda i: None):
    return [EncryptedTuple(payload=bytes([i % 256]) * 8, group_tag=tag_fn(i)) for i in range(n)]


class TestRandomPartitioner:
    def test_partition_sizes(self):
        parts = RandomPartitioner(4, random.Random(0)).partition(make_items(10))
        sizes = sorted(len(p.items) for p in parts)
        assert sizes == [2, 4, 4]

    def test_all_items_preserved(self):
        items = make_items(25)
        parts = RandomPartitioner(7, random.Random(0)).partition(items)
        recovered = [item for p in parts for item in p.items]
        assert sorted(i.payload for i in recovered) == sorted(i.payload for i in items)

    def test_shuffling_randomizes_order(self):
        items = make_items(50)
        a = RandomPartitioner(50, random.Random(1)).partition(items)[0]
        assert list(a.items) != items  # astronomically unlikely to match

    def test_unique_partition_ids_across_calls(self):
        partitioner = RandomPartitioner(2, random.Random(0))
        first = partitioner.partition(make_items(4))
        second = partitioner.partition(make_items(4))
        ids = [p.partition_id for p in first + second]
        assert len(set(ids)) == len(ids)

    def test_empty_input(self):
        assert RandomPartitioner(4, random.Random(0)).partition([]) == []

    def test_invalid_size_rejected(self):
        with pytest.raises(ConfigurationError):
            RandomPartitioner(0, random.Random(0))

    def test_byte_size(self):
        parts = RandomPartitioner(10, random.Random(0)).partition(make_items(3))
        assert parts[0].byte_size() == 24


class TestTagPartitioner:
    def test_one_partition_per_tag(self):
        items = make_items(12, tag_fn=lambda i: bytes([i % 3]))
        parts = TagPartitioner().partition(items)
        assert len(parts) == 3
        for p in parts:
            tags = {item.group_tag for item in p.items}
            assert len(tags) == 1

    def test_oversized_tag_split(self):
        items = make_items(10, tag_fn=lambda i: b"\x00")
        parts = TagPartitioner(max_partition_size=4).partition(items)
        assert len(parts) == 3
        assert sorted(len(p.items) for p in parts) == [2, 4, 4]

    def test_untagged_items_rejected(self):
        with pytest.raises(ConfigurationError):
            TagPartitioner().partition(make_items(3))

    def test_deterministic_ordering(self):
        items = make_items(9, tag_fn=lambda i: bytes([i % 3]))
        a = TagPartitioner().partition(list(items))
        b = TagPartitioner().partition(list(items))
        assert [p.items for p in a] == [p.items for p in b]

    def test_empty_input(self):
        assert TagPartitioner().partition([]) == []

    def test_invalid_max_size(self):
        with pytest.raises(ConfigurationError):
            TagPartitioner(max_partition_size=0)
