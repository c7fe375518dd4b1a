"""Engine selection behind the cipher cache: resolution order, the
``REPRO_CRYPTO_ENGINE`` override, and cache hygiene on switches."""

import pytest

from repro.crypto import cache
from repro.crypto.aes import AES128
from repro.crypto.reference import ReferenceAES128
from repro.exceptions import ConfigurationError

try:
    from repro.crypto.openssl import OpenSSLAES128

    HAVE_CRYPTOGRAPHY = True
except ImportError:  # pragma: no cover - environment without cryptography
    HAVE_CRYPTOGRAPHY = False

KEY = bytes(16)


@pytest.fixture(autouse=True)
def restore_engine(monkeypatch):
    monkeypatch.delenv(cache.ENGINE_ENV, raising=False)
    yield
    cache.use_engine("auto")
    cache.clear()


class TestSelection:
    def test_auto_prefers_cryptography(self):
        resolved = cache.use_engine("auto")
        if HAVE_CRYPTOGRAPHY:
            assert resolved == "cryptography"
            assert isinstance(cache.aes_for_subkey(KEY, b"t"), OpenSSLAES128)
        else:
            assert resolved == "ttable"

    def test_explicit_ttable(self):
        assert cache.use_engine("ttable") == "ttable"
        assert isinstance(cache.aes_for_subkey(KEY, b"t"), AES128)

    @pytest.mark.parametrize("name", ["reference", "nope"])
    def test_refused_engine_names_the_choices(self, name):
        # the per-byte oracle is a test fixture, not an engine to run on
        with pytest.raises(ConfigurationError) as refused:
            cache.use_engine(name)
        message = str(refused.value)
        assert repr(name) in message
        assert all(choice in message for choice in ("auto", "cryptography", "ttable"))
        assert cache.ENGINE_CHOICES == ("auto", "cryptography", "ttable")

    def test_explicit_reference(self, reference_engine):
        # what the parity tests rely on: the fixture puts the oracle
        # behind the cache
        assert cache.use_engine("reference") == "reference"
        assert isinstance(cache.aes_for_subkey(KEY, b"t"), ReferenceAES128)

    @pytest.mark.skipif(not HAVE_CRYPTOGRAPHY, reason="cryptography missing")
    def test_explicit_cryptography(self):
        assert cache.use_engine("cryptography") == "cryptography"
        assert isinstance(cache.aes_for_subkey(KEY, b"t"), OpenSSLAES128)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            cache.use_engine("rot13")

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(cache.ENGINE_ENV, "ttable")
        assert cache.use_engine() == "ttable"
        assert cache.selected_engine() == "ttable"

    def test_selected_engine_resolves_lazily(self):
        resolved = cache.use_engine("ttable")
        assert cache.selected_engine() == resolved


class TestSwitchHygiene:
    def test_switch_drops_cached_engines(self, reference_engine):
        cache.use_engine("ttable")
        cache.clear()
        cache.aes_for_subkey(KEY, b"a")
        assert cache.cache_info()["entries"] == 1
        cache.use_engine("reference")
        assert cache.cache_info()["entries"] == 0
        assert isinstance(cache.aes_for_subkey(KEY, b"a"), ReferenceAES128)

    def test_same_engine_keeps_cache(self):
        cache.use_engine("ttable")
        cache.clear()
        cache.aes_for_subkey(KEY, b"a")
        cache.use_engine("ttable")
        assert cache.cache_info()["entries"] == 1

    def test_ciphertext_identical_across_switch(self, reference_engine):
        # The whole stack is engine-oblivious: switching engines must
        # never change bytes on the wire.
        cache.use_engine("ttable")
        fast = cache.det_cipher(KEY).encrypt(b"district-7")
        cache.use_engine("reference")
        slow = cache.det_cipher(KEY).encrypt(b"district-7")
        assert fast == slow
