"""Cipher-cache bounds: FIFO eviction instead of the seed's full clear,
schedule release on eviction, and lock-consistent counters."""

import gc

import pytest

from repro.crypto import aes, cache


@pytest.fixture(autouse=True)
def clean_cache():
    cache.clear()
    yield
    cache.clear()
    cache.use_engine("auto")


def key(i: int) -> bytes:
    return i.to_bytes(16, "big")


def live_ttable_engines() -> int:
    gc.collect()
    return sum(isinstance(obj, aes.AES128) for obj in gc.get_objects())


class TestFifoEviction:
    def test_oldest_entry_evicted_first(self, monkeypatch):
        monkeypatch.setattr(cache, "_MAX_ENTRIES", 3)
        engines = [cache.aes_for_subkey(key(i), b"L") for i in range(3)]
        assert cache.cache_info()["entries"] == 3
        cache.aes_for_subkey(key(3), b"L")
        info = cache.cache_info()
        assert info["entries"] == 3
        # keys 1..3 survive (hits); key 0 was the FIFO victim (miss)
        assert cache.aes_for_subkey(key(1), b"L") is engines[1]
        assert cache.aes_for_subkey(key(2), b"L") is engines[2]
        before = cache.cache_info()["misses"]
        cache.aes_for_subkey(key(0), b"L")
        assert cache.cache_info()["misses"] == before + 1

    def test_eviction_is_not_a_full_clear(self, monkeypatch):
        monkeypatch.setattr(cache, "_MAX_ENTRIES", 4)
        for i in range(8):
            cache.aes_for_subkey(key(i), b"L")
        assert cache.cache_info()["entries"] == 4
        # the three most recent entries are all still hits
        hits_before = cache.cache_info()["hits"]
        for i in (5, 6, 7):
            cache.aes_for_subkey(key(i), b"L")
        assert cache.cache_info()["hits"] == hits_before + 3

    def test_eviction_releases_expanded_schedule(self, monkeypatch):
        """An evicted engine takes its expanded schedule with it: however
        many keys pass through, no more engines outlive them than the
        cache holds."""
        monkeypatch.setattr(cache, "_MAX_ENTRIES", 4)
        cache.use_engine("ttable")  # the engine that expands in Python
        before = live_ttable_engines()
        for i in range(4 * cache._MAX_ENTRIES):
            cache.aes_for_subkey(key(100 + i), b"L")
        assert live_ttable_engines() - before <= cache._MAX_ENTRIES

    def test_counters_track_lookups(self):
        cache.aes_for_subkey(key(1), b"L")
        cache.aes_for_subkey(key(1), b"L")
        cache.aes_for_subkey(key(2), b"L")
        info = cache.cache_info()
        assert info == {"entries": 2, "hits": 1, "misses": 2}
