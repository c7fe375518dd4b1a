"""The crypto fast path: T-table AES vs. the reference oracle, batched
APIs, and the process-wide cipher cache."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import cache
from repro.crypto.aes import AES128
from repro.crypto.det import DeterministicCipher
from repro.crypto.keys import KeyRing, derive_subkey
from repro.crypto.modes import cbc_mac_many, ctr_many
from repro.crypto.ndet import NonDeterministicCipher
from repro.crypto.reference import (
    ReferenceAES128,
    reference_cbc_mac,
    reference_ctr,
)
from repro.exceptions import DecryptionError

KEY = bytes(range(16))


def ctr(cipher, nonce, data):
    return ctr_many(cipher, [nonce], [data])[0]


def mac(cipher, data):
    return cbc_mac_many(cipher, [data])[0]


keys = st.binary(min_size=16, max_size=16)
blocks = st.binary(min_size=16, max_size=16)
messages = st.binary(min_size=0, max_size=200)
batches = st.lists(st.binary(min_size=0, max_size=120), min_size=0, max_size=12)


class TestEquivalenceWithReference:
    """Any divergence from the seed's per-byte AES is a fast-path bug."""

    @given(keys, blocks)
    @settings(max_examples=200, deadline=None)
    def test_encrypt_block_matches(self, key, block):
        assert AES128(key).encrypt_block(block) == ReferenceAES128(key).encrypt_block(block)

    @given(keys, blocks)
    @settings(max_examples=200, deadline=None)
    def test_decrypt_block_matches(self, key, block):
        assert AES128(key).decrypt_block(block) == ReferenceAES128(key).decrypt_block(block)

    @given(keys, st.binary(min_size=8, max_size=8), messages)
    @settings(max_examples=100, deadline=None)
    def test_ctr_matches(self, key, nonce, data):
        assert ctr(AES128(key), nonce, data) == reference_ctr(
            ReferenceAES128(key), nonce, data
        )

    @given(keys, messages)
    @settings(max_examples=100, deadline=None)
    def test_cbc_mac_matches(self, key, data):
        assert mac(AES128(key), data) == reference_cbc_mac(
            ReferenceAES128(key), data
        )

    def test_long_message_crosses_numpy_threshold(self):
        """Cover both the scalar and the vectorized keystream and MAC
        paths: each size alone, then all of them as one batch."""
        sizes = (0, 1, 15, 16, 255, 256, 257, 5000)
        datas = [bytes(i % 251 for i in range(size)) for size in sizes]
        nonces = [bytes([size % 256]) * 8 for size in sizes]
        oracle = ReferenceAES128(KEY)
        want_ctr = [reference_ctr(oracle, n, d) for n, d in zip(nonces, datas)]
        want_mac = [reference_cbc_mac(oracle, d) for d in datas]
        for nonce, data, body, tag in zip(nonces, datas, want_ctr, want_mac):
            assert ctr(AES128(KEY), nonce, data) == body
            assert mac(AES128(KEY), data) == tag
        assert ctr_many(AES128(KEY), nonces, datas) == want_ctr
        assert cbc_mac_many(AES128(KEY), datas) == want_mac


class TestBatchedCiphers:
    @given(batches)
    @settings(max_examples=50, deadline=None)
    def test_ndet_batch_roundtrip(self, plaintexts):
        cipher = NonDeterministicCipher(KEY, rng=random.Random(5))
        assert cipher.decrypt_many(cipher.encrypt_many(plaintexts)) == plaintexts

    @given(batches)
    @settings(max_examples=50, deadline=None)
    def test_det_batch_roundtrip(self, plaintexts):
        cipher = DeterministicCipher(KEY)
        assert cipher.decrypt_many(cipher.encrypt_many(plaintexts)) == plaintexts

    @given(batches)
    @settings(max_examples=25, deadline=None)
    def test_batch_matches_single(self, plaintexts):
        """Batched Det_Enc must produce exactly the per-call ciphertexts
        (determinism is what the SSI's grouping relies on)."""
        cipher = DeterministicCipher(KEY)
        assert cipher.encrypt_many(plaintexts) == [
            cipher.encrypt(p) for p in plaintexts
        ]

    def test_ndet_batch_interoperates_with_single(self):
        cipher = NonDeterministicCipher(KEY, rng=random.Random(5))
        ciphertexts = cipher.encrypt_many([b"a", b"bb" * 40, b""])
        assert [cipher.decrypt(c) for c in ciphertexts] == [b"a", b"bb" * 40, b""]
        single = cipher.encrypt(b"solo")
        assert cipher.decrypt_many([single]) == [b"solo"]

    def test_tampered_batch_rejected_as_a_whole(self):
        cipher = NonDeterministicCipher(KEY, rng=random.Random(5))
        ciphertexts = cipher.encrypt_many([b"one", b"two", b"three"])
        bad = bytearray(ciphertexts[1])
        bad[-1] ^= 0xFF
        with pytest.raises(DecryptionError):
            cipher.decrypt_many([ciphertexts[0], bytes(bad), ciphertexts[2]])

    def test_det_truncated_batch_rejected(self):
        cipher = DeterministicCipher(KEY)
        with pytest.raises(DecryptionError):
            cipher.decrypt_many([b"short"])

    def test_empty_batch(self):
        cipher = NonDeterministicCipher(KEY, rng=random.Random(5))
        assert cipher.encrypt_many([]) == []
        assert cipher.decrypt_many([]) == []


class TestCipherCache:
    def setup_method(self):
        cache.clear()

    def test_same_engine_reused(self):
        a = NonDeterministicCipher(KEY, rng=random.Random(1))
        b = NonDeterministicCipher(KEY, rng=random.Random(2))
        assert a._enc is b._enc and a._mac is b._mac

    def test_hit_miss_counters(self):
        cache.clear()
        NonDeterministicCipher(KEY)
        first = cache.cache_info()
        NonDeterministicCipher(KEY)
        second = cache.cache_info()
        assert first["misses"] == 2  # enc + mac engines
        assert second["hits"] == 2
        assert second["entries"] == 2

    def test_rotation_evicts_old_epoch(self):
        ring = KeyRing("k2", KEY)
        before = NonDeterministicCipher(ring.current.material)
        assert cache.cache_info()["entries"] == 2
        ring.rotate(bytes(reversed(KEY)))
        # the superseded epoch's engines are gone...
        assert cache.cache_info()["entries"] == 0
        # ...and rebuilding them still yields a working, equivalent cipher
        rebuilt = NonDeterministicCipher(KEY)
        assert rebuilt.decrypt(before.encrypt(b"old epoch")) == b"old epoch"

    def test_rotation_keeps_other_keys(self):
        other = bytes(16)
        NonDeterministicCipher(other)
        ring = KeyRing("k2", KEY)
        NonDeterministicCipher(ring.current.material)
        ring.rotate(bytes(reversed(KEY)))
        info = cache.cache_info()
        assert info["entries"] == 2  # the unrelated key's engines survive

    def test_subkeys_differ_per_label(self):
        assert derive_subkey(KEY, b"nDet/enc") != derive_subkey(KEY, b"nDet/mac")
        ndet = NonDeterministicCipher(KEY)
        det = DeterministicCipher(KEY)
        assert ndet._enc is not det._enc
