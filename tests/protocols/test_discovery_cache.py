"""Cross-query discovery cache: correctness, invalidation, key separation.

The cache must change *when* discovery runs, never *what* a protocol
sees: a cached histogram/domain must be byte-for-byte what a fresh
discovery would produce this epoch, a bumped epoch must force
rediscovery, and ED_Hist and C_Noise artifacts for the same column must
never alias each other.
"""

import random

import pytest

from repro.protocols import (
    DiscoveryCache,
    DiscoveryKey,
    build_histogram,
    cached_distribution,
    cached_domain,
    cached_histogram,
    discover_distribution,
    discover_domain,
)

from .conftest import run_protocol

GROUP_SQL = "SELECT district, COUNT(*) AS n FROM Consumer GROUP BY district"


class TestCacheBasics:
    def test_distribution_discovered_once(self, deployment):
        cache = DiscoveryCache()
        first = cached_distribution(cache, deployment, "Consumer", "district")
        second = cached_distribution(cache, deployment, "Consumer", "district")
        assert first == second
        assert cache.misses == 1
        assert cache.hits == 1

    def test_cached_matches_uncached(self, deployment):
        cache = DiscoveryCache()
        assert cached_distribution(
            cache, deployment, "Consumer", "district"
        ) == discover_distribution(deployment, "Consumer", "district")
        assert cached_domain(
            cache, deployment, "Consumer", "district"
        ) == discover_domain(deployment, "Consumer", "district")
        cached_hist = cached_histogram(
            cache, deployment, "Consumer", "district", num_buckets=2
        )
        fresh_hist = build_histogram(
            deployment, "Consumer", "district", num_buckets=2
        )
        assert cached_hist.buckets() == fresh_hist.buckets()

    def test_hit_returns_a_copy(self, deployment):
        cache = DiscoveryCache()
        first = cached_distribution(cache, deployment, "Consumer", "district")
        first.clear()  # caller mutates its copy...
        second = cached_distribution(cache, deployment, "Consumer", "district")
        assert second  # ...without corrupting what later queries get

    def test_domain_derives_from_shared_distribution(self, deployment):
        cache = DiscoveryCache()
        cached_histogram(cache, deployment, "Consumer", "district", 2)
        before = cache.misses
        # the domain's frequency table is already cached: only the
        # domain artifact itself misses, no second S_Agg discovery run
        cached_domain(cache, deployment, "Consumer", "district")
        assert cache.misses == before + 1
        assert cache.hits >= 1


class TestEpochInvalidation:
    def test_bump_epoch_forces_rediscovery(self, deployment):
        cache = DiscoveryCache()
        cached_distribution(cache, deployment, "Consumer", "district")
        assert len(cache) == 1
        assert cache.bump_epoch() == 1
        assert len(cache) == 0
        cached_distribution(cache, deployment, "Consumer", "district")
        assert cache.misses == 2
        assert cache.hits == 0

    def test_stale_epoch_keys_never_hit(self, deployment):
        cache = DiscoveryCache()
        stale_key = cache.key("Consumer", "district", "distribution")
        cached_distribution(cache, deployment, "Consumer", "district")
        cache.bump_epoch()
        fresh_key = cache.key("Consumer", "district", "distribution")
        assert stale_key != fresh_key
        calls = []
        cache.get_or_compute(stale_key, lambda: calls.append(1) or {"x": 1})
        assert calls == [1]  # stale key missed: entries died with the bump


class TestKeySeparation:
    def test_cross_protocol_keys_are_distinct(self):
        histogram_key = DiscoveryKey(0, "Consumer", "district", "histogram", (2,))
        domain_key = DiscoveryKey(0, "Consumer", "district", "domain")
        distribution_key = DiscoveryKey(0, "Consumer", "district", "distribution")
        assert len({histogram_key, domain_key, distribution_key}) == 3

    def test_bucket_count_is_part_of_the_key(self, deployment):
        cache = DiscoveryCache()
        two = cached_histogram(cache, deployment, "Consumer", "district", 2)
        four = cached_histogram(cache, deployment, "Consumer", "district", 4)
        assert two.buckets() != four.buckets()

    def test_ed_hist_and_c_noise_artifacts_do_not_alias(self, deployment):
        cache = DiscoveryCache()
        histogram = cached_histogram(cache, deployment, "Consumer", "district", 2)
        domain = cached_domain(cache, deployment, "Consumer", "district")
        assert isinstance(domain, list)
        assert domain != histogram.buckets()


class TestDriverParity:
    """Cached and uncached discovery feed drivers identical artifacts,
    so query results are identical — the cache is invisible to answers."""

    def test_ed_hist_results_identical(self, deployment):
        cache = DiscoveryCache()
        fresh = build_histogram(deployment, "Consumer", "district", 2)
        cached = cached_histogram(cache, deployment, "Consumer", "district", 2)
        rows_fresh, _ = run_protocol(
            deployment, "ed_hist", GROUP_SQL, histogram=fresh
        )
        rows_cached, _ = run_protocol(
            deployment, "ed_hist", GROUP_SQL, histogram=cached
        )
        assert rows_fresh == rows_cached

    def test_c_noise_results_identical(self, deployment):
        cache = DiscoveryCache()
        fresh = build_histogram(deployment, "Consumer", "district", 2)
        cached = cached_histogram(cache, deployment, "Consumer", "district", 2)
        # the histogram's values are the domain, as discover_domain finds it
        assert fresh.values() == cached.values() == discover_domain(
            deployment, "Consumer", "district"
        )
        rows_fresh, _ = run_protocol(
            deployment, "c_noise", GROUP_SQL, histogram=fresh
        )
        rows_cached, _ = run_protocol(
            deployment, "c_noise", GROUP_SQL, histogram=cached
        )
        assert rows_fresh == rows_cached
