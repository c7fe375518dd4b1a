"""Equi-depth histogram tests."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.tds.histogram import (
    Bucket,
    EquiDepthHistogram,
    frequencies_from_values,
)

SRC = str(Path(__file__).resolve().parents[2] / "src")


class TestConstruction:
    def test_basic_two_buckets(self):
        hist = EquiDepthHistogram.from_distribution(
            {"a": 50, "b": 30, "c": 10, "d": 10}, num_buckets=2
        )
        assert hist.bucket_count() == 2
        # greedy: a(50) alone, b+c+d (50) together
        bucket_a = hist.bucket(hist.bucket_of("a"))
        assert bucket_a.weight == 50

    def test_buckets_capped_by_distinct_values(self):
        hist = EquiDepthHistogram.from_distribution({"a": 5, "b": 5}, num_buckets=10)
        assert hist.bucket_count() == 2

    def test_single_bucket(self):
        hist = EquiDepthHistogram.from_distribution({"a": 1, "b": 2}, num_buckets=1)
        assert hist.bucket_of("a") == hist.bucket_of("b") == 0

    def test_empty_distribution_rejected(self):
        with pytest.raises(ConfigurationError):
            EquiDepthHistogram.from_distribution({}, num_buckets=2)

    def test_zero_buckets_rejected(self):
        with pytest.raises(ConfigurationError):
            EquiDepthHistogram.from_distribution({"a": 1}, num_buckets=0)

    def test_duplicate_value_across_buckets_rejected(self):
        buckets = [
            Bucket(0, frozenset({"a"}), 1),
            Bucket(1, frozenset({"a", "b"}), 2),
        ]
        with pytest.raises(ConfigurationError):
            EquiDepthHistogram(buckets)


class TestMapping:
    def test_all_values_mapped(self):
        freq = {f"v{i}": i + 1 for i in range(20)}
        hist = EquiDepthHistogram.from_distribution(freq, num_buckets=4)
        for value in freq:
            assert 0 <= hist.bucket_of(value) < 4

    def test_unseen_value_gets_stable_bucket(self):
        hist = EquiDepthHistogram.from_distribution({"a": 1, "b": 1}, num_buckets=2)
        first = hist.bucket_of("never-seen")
        assert first == hist.bucket_of("never-seen")
        assert 0 <= first < hist.bucket_count()

    def test_unseen_values_get_the_same_bucket_in_every_process(self):
        # two shards of a sharded fleet are two interpreters, each with
        # its own hash() salt; both must tag an unseen value alike
        script = (
            "from repro.tds.histogram import EquiDepthHistogram\n"
            "hist = EquiDepthHistogram.from_distribution("
            "{f'v{i}': 1 for i in range(16)}, num_buckets=7)\n"
            "unseen = [f'unseen-{i}' for i in range(40)] + [('x', 3), 17, 2.5, None]\n"
            "print([hist.bucket_of(value) for value in unseen])\n"
        )
        outputs = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, timeout=60, check=True,
            )
            outputs.add(done.stdout)
        assert len(outputs) == 1
        assert len(set(ast.literal_eval(outputs.pop()))) > 1  # not one constant bucket

    def test_collision_factor(self):
        hist = EquiDepthHistogram.from_distribution(
            {f"v{i}": 1 for i in range(10)}, num_buckets=2
        )
        assert hist.collision_factor() == 5.0

    def test_tuples_as_values(self):
        # composite group keys are hashable tuples
        hist = EquiDepthHistogram.from_distribution(
            {("a", 1): 3, ("b", 2): 3}, num_buckets=2
        )
        assert hist.bucket_of(("a", 1)) != hist.bucket_of(("b", 2))


class TestEquiDepthQuality:
    def test_uniform_distribution_perfectly_flat(self):
        freq = {f"v{i}": 10 for i in range(12)}
        hist = EquiDepthHistogram.from_distribution(freq, num_buckets=4)
        assert hist.skew() == pytest.approx(1.0)

    def test_zipf_distribution_reasonably_flat(self):
        freq = {f"v{i}": max(1, int(1000 / (i + 1))) for i in range(50)}
        hist = EquiDepthHistogram.from_distribution(freq, num_buckets=5)
        # greedy first-fit-decreasing keeps skew modest even under Zipf
        assert hist.skew() < 1.5

    @given(
        st.dictionaries(
            st.integers(0, 100), st.integers(1, 50), min_size=4, max_size=40
        ),
        st.integers(2, 8),
    )
    @settings(max_examples=50, deadline=None)
    def test_partition_property(self, freq, num_buckets):
        """Buckets partition the domain: every value in exactly one bucket,
        weights sum to the total frequency."""
        hist = EquiDepthHistogram.from_distribution(freq, num_buckets)
        seen = set()
        for bucket in hist.buckets():
            assert not (bucket.values & seen)
            seen |= bucket.values
        assert seen == set(freq)
        assert sum(b.weight for b in hist.buckets()) == sum(freq.values())


class TestHelpers:
    def test_frequencies_from_values(self):
        assert frequencies_from_values(["a", "b", "a"]) == {"a": 2, "b": 1}

    def test_frequencies_empty(self):
        assert frequencies_from_values([]) == {}
