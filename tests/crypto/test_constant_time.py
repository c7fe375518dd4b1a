"""Regression tests for the constant-time tag comparisons.

The seed compared MAC tags with ``==`` — a timing side channel: an
attacker submitting forgeries to a TDS could learn a tag byte-by-byte
from how fast rejection happens.  Every verification path must now go
through :func:`hmac.compare_digest`, and batched verification must
compare *every* tag even after the first mismatch (no early exit that
leaks the forgery's position)."""

import hmac
import random

import pytest

from repro.crypto import cache
from repro.crypto.det import DeterministicCipher
from repro.crypto.ndet import NonDeterministicCipher
from repro.exceptions import DecryptionError

KEY = bytes(range(32, 48))


@pytest.fixture
def spy(monkeypatch):
    calls = []
    real = hmac.compare_digest

    def spying(a, b):
        calls.append((bytes(a), bytes(b)))
        return real(a, b)

    monkeypatch.setattr(hmac, "compare_digest", spying)
    return calls


def tamper(ciphertext: bytes, index: int = 0) -> bytes:
    return (
        ciphertext[:index]
        + bytes([ciphertext[index] ^ 0x01])
        + ciphertext[index + 1 :]
    )


class TestNDet:
    def test_decrypt_verifies_via_compare_digest(self, spy):
        cipher = NonDeterministicCipher(KEY, random.Random(1))
        assert cipher.decrypt(cipher.encrypt(b"secret")) == b"secret"
        assert len(spy) == 1

    def test_decrypt_many_compares_every_tag(self, spy):
        cipher = NonDeterministicCipher(KEY, random.Random(1))
        batch = cipher.encrypt_many([b"a", b"b", b"c", b"d"])
        batch[0] = tamper(batch[0], len(batch[0]) - 1)  # first tag bad
        with pytest.raises(DecryptionError):
            cipher.decrypt_many(batch)
        # no early exit: all four tags were compared despite the first
        # one already failing
        assert len(spy) == 4

    def test_decrypt_block_compares_every_tag(self, spy):
        cipher = NonDeterministicCipher(KEY, random.Random(1))
        payloads = [b"a", b"bb", b"ccc"]
        offsets = (0, 1, 3, 6)
        ct, ct_offsets = cipher.encrypt_block(b"abbccc", offsets)
        with pytest.raises(DecryptionError):
            cipher.decrypt_block(tamper(ct), ct_offsets)
        assert len(spy) == len(payloads)


class TestDet:
    def test_decrypt_verifies_via_compare_digest(self, spy):
        cipher = DeterministicCipher(KEY)
        assert cipher.decrypt(cipher.encrypt(b"group")) == b"group"
        assert len(spy) == 1

    def test_decrypt_many_compares_every_siv(self, spy):
        cipher = DeterministicCipher(KEY)
        batch = cipher.encrypt_many([b"a", b"b", b"c"])
        batch[1] = tamper(batch[1])
        with pytest.raises(DecryptionError):
            cipher.decrypt_many(batch)
        assert len(spy) == 3

    def test_decrypt_block_compares_every_siv(self, spy):
        cipher = DeterministicCipher(KEY)
        ct, ct_offsets = cipher.encrypt_block(b"xxyyzz", (0, 2, 4, 6))
        with pytest.raises(DecryptionError):
            cipher.decrypt_block(tamper(ct), ct_offsets)
        assert len(spy) == 3


def _engines() -> list[str]:
    try:
        from repro.crypto import openssl  # noqa: F401
    except ImportError:  # pragma: no cover - environment without cryptography
        return ["ttable"]
    return ["ttable", "cryptography"]


LOCKSTEP_BATCH = 64


@pytest.fixture(params=_engines())
def engine(request, monkeypatch):
    """Each engine in turn; on OpenSSL, counts the lockstep CBC-MAC passes
    so a test can tell the 64-item batch really ran in lockstep."""
    cache.use_engine(request.param)
    cache.clear()
    passes = []
    if request.param == "cryptography":
        from repro.crypto import openssl

        real = openssl.OpenSSLAES128._cbc_mac_lockstep

        def counting(self, messages):
            passes.append(len(messages))
            return real(self, messages)

        monkeypatch.setattr(openssl.OpenSSLAES128, "_cbc_mac_lockstep", counting)
    yield request.param, passes
    cache.use_engine("auto")
    cache.clear()


@pytest.mark.parametrize("where", [0, LOCKSTEP_BATCH // 2, LOCKSTEP_BATCH - 1])
@pytest.mark.parametrize("scheme", [NonDeterministicCipher, DeterministicCipher])
class TestLockstepSizeBatches:
    """A batch large enough for the OpenSSL engine's lockstep: a flipped
    byte anywhere, or a truncated item (which makes the batch ragged), is
    rejected after every tag was compared."""

    def batch(self, scheme):
        cipher = scheme(KEY)
        items = [bytes([i]) * 48 for i in range(LOCKSTEP_BATCH)]
        return cipher, cipher.encrypt_many(items)

    def test_flipped_byte(self, spy, engine, scheme, where):
        name, passes = engine
        cipher, batch = self.batch(scheme)
        batch[where] = tamper(batch[where], len(batch[where]) // 2)
        del spy[:], passes[:]
        with pytest.raises(DecryptionError):
            cipher.decrypt_many(batch)
        assert len(spy) == LOCKSTEP_BATCH
        if name == "cryptography":
            assert passes == [LOCKSTEP_BATCH]

    def test_truncated_item(self, spy, engine, scheme, where):
        # the short item's CTR pass loops; whether its MAC pass does
        # depends on the framing's padding, and neither may matter
        cipher, batch = self.batch(scheme)
        batch[where] = batch[where][:-1]
        del spy[:]
        with pytest.raises(DecryptionError):
            cipher.decrypt_many(batch)
        assert len(spy) == LOCKSTEP_BATCH
