"""The OpenSSL engine's persistent, per-thread EVP contexts.

``OpenSSLAES128`` keeps one CTR and one CBC context per thread and key
instead of building them per call (DESIGN §2 "Crypto fast path").  What
that must not change — bytes out, for any sequence of messages, from any
thread, after any failure — is pinned here against the per-byte oracle in
:mod:`repro.crypto.reference`.
"""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import cache
from repro.crypto.aes import AES128
from repro.crypto.det import DeterministicCipher
from repro.crypto.modes import cbc_mac, ctr_transform
from repro.crypto.ndet import NonDeterministicCipher
from repro.crypto.reference import (
    ReferenceAES128,
    reference_cbc_mac,
    reference_ctr_transform,
)
from repro.exceptions import ConfigurationError

openssl = pytest.importorskip("repro.crypto.openssl")

KEYS = [bytes(range(16)), bytes(range(16, 32)), b"\xff" * 16]
BOUNDARY_LENGTHS = [0, 1, 15, 16, 17, 4096]
NONCE = bytes(range(8))


@pytest.fixture(autouse=True)
def restore_engine():
    yield
    cache.use_engine("auto")
    cache.clear()


def message(length: int, salt: int) -> bytes:
    return bytes((salt + 7 * i) & 0xFF for i in range(length))


class TestMessagePrimitivesMatchTheReference:
    @pytest.mark.parametrize("length", BOUNDARY_LENGTHS)
    def test_boundary_lengths(self, length):
        engine = openssl.OpenSSLAES128(KEYS[0])
        oracle = ReferenceAES128(KEYS[0])
        data = message(length, 3)
        assert ctr_transform(engine, NONCE, data) == reference_ctr_transform(
            oracle, NONCE, data
        )
        assert cbc_mac(engine, data) == reference_cbc_mac(oracle, data)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, len(KEYS) - 1),
                st.one_of(
                    st.sampled_from(BOUNDARY_LENGTHS[:-1]), st.integers(0, 80)
                ),
                st.binary(min_size=8, max_size=8),
                st.booleans(),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_sequences_on_one_engine_do_not_leak_state(self, steps):
        # One engine per key, reused across the whole sequence: the CBC
        # context carries the previous tag and the CTR context the previous
        # counter; neither may show in the next message's output.
        engines = [openssl.OpenSSLAES128(key) for key in KEYS]
        oracles = [ReferenceAES128(key) for key in KEYS]
        for index, (which, length, nonce, mac_first) in enumerate(steps):
            data = message(length, index)
            order = ("mac", "ctr") if mac_first else ("ctr", "mac")
            for operation in order:
                if operation == "mac":
                    assert cbc_mac(engines[which], data) == reference_cbc_mac(
                        oracles[which], data
                    )
                else:
                    assert ctr_transform(
                        engines[which], nonce, data
                    ) == reference_ctr_transform(oracles[which], nonce, data)

    def test_long_message_between_short_ones(self):
        engine = openssl.OpenSSLAES128(KEYS[1])
        oracle = AES128(KEYS[1])  # pinned to the reference by test_fast_path
        for length in (16, 4096, 0, 17, 4096, 1):
            data = message(length, length)
            assert cbc_mac(engine, data) == cbc_mac(oracle, data)
            assert ctr_transform(engine, NONCE, data) == ctr_transform(
                oracle, NONCE, data
            )


class TestThreads:
    def test_one_cached_engine_hammered_from_many_threads(self):
        # The loop thread's fleet and MultiQueryRunner's to_thread decrypts
        # share one cached engine.  A single shared context fails this: a
        # switch between reset_nonce and update, or between two MACs'
        # chaining values, corrupts the other thread's output.
        cache.use_engine("cryptography")
        enc = cache.aes_for_subkey(KEYS[0], b"nDet/enc")
        mac = cache.aes_for_subkey(KEYS[0], b"nDet/mac")
        cache.use_engine("ttable")
        oracle_enc = cache.aes_for_subkey(KEYS[0], b"nDet/enc")
        oracle_mac = cache.aes_for_subkey(KEYS[0], b"nDet/mac")
        assert isinstance(enc, openssl.OpenSSLAES128)
        assert isinstance(oracle_enc, AES128)
        cases = []
        for salt in range(24):
            data = message(40 + 13 * salt, salt)
            nonce = salt.to_bytes(8, "big")
            cases.append(
                (
                    nonce,
                    data,
                    ctr_transform(oracle_enc, nonce, data),
                    cbc_mac(oracle_mac, data),
                )
            )
        wrong: list[tuple[str, int]] = []
        rounds = 3000
        together = threading.Barrier(5)

        def hammer(offset: int) -> None:
            together.wait(timeout=30)
            for turn in range(rounds):
                nonce, data, want_body, want_tag = cases[
                    (offset + turn) % len(cases)
                ]
                if ctr_transform(enc, nonce, data) != want_body:
                    wrong.append(("ctr", offset))
                if cbc_mac(mac, data) != want_tag:
                    wrong.append(("mac", offset))

        threads = [
            threading.Thread(target=hammer, args=(5 * n,)) for n in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            hammer(3)
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


class CountingCipher:
    """Stands in for ``cryptography``'s ``Cipher``: counts constructions."""

    built = 0

    def __init__(self, algorithm, mode):
        type(self).built += 1
        self._real = REAL_CIPHER(algorithm, mode)

    def encryptor(self):
        return self._real.encryptor()

    def decryptor(self):
        return self._real.decryptor()


REAL_CIPHER = openssl.Cipher


class TestContextsArePersistent:
    def test_bounded_context_count_per_thread(self, monkeypatch):
        monkeypatch.setattr(openssl, "Cipher", CountingCipher)
        CountingCipher.built = 0
        cache.use_engine("cryptography")
        cache.clear()
        ndet = NonDeterministicCipher(KEYS[2])
        det = DeterministicCipher(KEYS[2])
        for turn in range(1000):
            data = message(turn % 300, turn)
            assert ndet.decrypt(ndet.encrypt(data)) == data
            assert det.decrypt(det.encrypt(data)) == data
        packed = message(600, 1)
        offsets = (0, 100, 350, 600)
        for cipher in (ndet, det):
            sealed, sealed_offsets = cipher.encrypt_block(packed, offsets)
            assert cipher.decrypt_block(sealed, sealed_offsets) == (
                packed,
                offsets,
            )
        # per scheme one CTR context on the enc engine and one CBC context
        # on the MAC engine, plus use_engine's reset_nonce probe — not one
        # per call
        assert CountingCipher.built <= 5

        def elsewhere():
            assert ndet.decrypt(ndet.encrypt(b"other thread")) == b"other thread"

        before = CountingCipher.built
        thread = threading.Thread(target=elsewhere)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert CountingCipher.built - before == 2  # that thread's own pair


class FailingContext:
    """A context whose ``update`` dies mid-message, state advanced."""

    def __init__(self, real):
        self._real = real

    def reset_nonce(self, nonce):
        self._real.reset_nonce(nonce)

    def update(self, data):
        self._real.update(bytes(data)[:16])
        raise RuntimeError("injected EVP failure")


class TestFailedContextIsDiscarded:
    def test_mac_after_a_failed_update_is_correct(self):
        engine = openssl.OpenSSLAES128(KEYS[0])
        oracle = AES128(KEYS[0])
        data = message(100, 9)
        assert cbc_mac(engine, data) == cbc_mac(oracle, data)
        engine._local.cbc = FailingContext(engine._local.cbc)
        with pytest.raises(RuntimeError):
            cbc_mac(engine, data)
        assert not hasattr(engine._local, "cbc")
        assert cbc_mac(engine, data) == cbc_mac(oracle, data)

    def test_ctr_after_a_failed_update_is_correct(self):
        engine = openssl.OpenSSLAES128(KEYS[0])
        oracle = AES128(KEYS[0])
        data = message(100, 4)
        assert ctr_transform(engine, NONCE, data) == ctr_transform(
            oracle, NONCE, data
        )
        engine._local.ctr = FailingContext(engine._local.ctr)
        with pytest.raises(RuntimeError):
            ctr_transform(engine, NONCE, data)
        assert not hasattr(engine._local, "ctr")
        assert ctr_transform(engine, NONCE, data) == ctr_transform(
            oracle, NONCE, data
        )

    def test_rejected_input_leaves_the_engine_usable(self):
        engine = openssl.OpenSSLAES128(KEYS[0])
        oracle = AES128(KEYS[0])
        with pytest.raises(TypeError):
            ctr_transform(engine, NONCE, "not bytes")
        with pytest.raises(ValueError):
            engine.cbc_mac_words(b"not block aligned")
        assert ctr_transform(engine, NONCE, b"abc") == ctr_transform(
            oracle, NONCE, b"abc"
        )
        assert cbc_mac(engine, b"abc") == cbc_mac(oracle, b"abc")


class OldCipher:
    """``cryptography`` < 43: contexts without ``reset_nonce``."""

    def __init__(self, algorithm, mode):
        pass

    def encryptor(self):
        return object()


class TestVersionFloor:
    def test_explicit_engine_names_the_floor(self, monkeypatch):
        monkeypatch.setattr(openssl, "Cipher", OldCipher)
        with pytest.raises(ConfigurationError, match="cryptography >= 43"):
            cache.use_engine("cryptography")

    def test_auto_falls_back_to_ttable(self, monkeypatch):
        monkeypatch.setattr(openssl, "Cipher", OldCipher)
        assert cache.use_engine("auto") == "ttable"
        assert isinstance(cache.aes_for_subkey(KEYS[0], b"t"), AES128)
