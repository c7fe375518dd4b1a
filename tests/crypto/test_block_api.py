"""Parity fuzz of the packed-block crypto APIs across every engine.

The block API (``encrypt_block`` / ``decrypt_block``) must be
byte-for-byte identical to the per-message API and
identical *across engines* — the reference per-byte implementation is
the oracle.  Tampered or truncated blocks must die with
:class:`DecryptionError` on every engine.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import cache
from repro.crypto.det import DeterministicCipher
from repro.crypto.ndet import NonDeterministicCipher
from repro.exceptions import DecryptionError

KEY = bytes(range(16))


def available_engines() -> list[str]:
    engines = ["reference", "ttable"]
    try:
        import cryptography  # noqa: F401

        engines.append("cryptography")
    except ImportError:
        pass
    return engines


ENGINES = available_engines()


@pytest.fixture(autouse=True)
def restore_engine():
    yield
    cache.use_engine("auto")
    cache.clear()


def pack(payloads: list[bytes]) -> tuple[bytes, tuple[int, ...]]:
    offsets = [0]
    total = 0
    for payload in payloads:
        total += len(payload)
        offsets.append(total)
    return b"".join(payloads), tuple(offsets)


def unpack(buffer: bytes, offsets: tuple[int, ...]) -> list[bytes]:
    return [
        buffer[offsets[i] : offsets[i + 1]] for i in range(len(offsets) - 1)
    ]


payload_lists = st.lists(st.binary(max_size=80), min_size=0, max_size=8)


class TestCrossEngineParity:
    @settings(max_examples=15, deadline=None)
    @given(payload_lists)
    def test_ndet_block_identical_across_engines(self, payloads):
        packed, offsets = pack(payloads)
        nonces = [
            random.Random(9).getrandbits(64).to_bytes(8, "big")
            for __ in payloads
        ]
        outputs = []
        for engine in ENGINES:
            cache.use_engine(engine)
            cipher = NonDeterministicCipher(KEY)
            outputs.append(cipher.encrypt_block(packed, offsets, nonces=nonces))
        assert all(out == outputs[0] for out in outputs)

    @settings(max_examples=15, deadline=None)
    @given(payload_lists)
    def test_det_block_identical_across_engines(self, payloads):
        packed, offsets = pack(payloads)
        outputs = []
        for engine in ENGINES:
            cache.use_engine(engine)
            outputs.append(DeterministicCipher(KEY).encrypt_block(packed, offsets))
        assert all(out == outputs[0] for out in outputs)


@pytest.mark.parametrize("engine", ENGINES)
class TestBlockPerEngine:
    @settings(max_examples=10, deadline=None)
    @given(payloads=payload_lists)
    def test_ndet_block_matches_per_message_api(self, engine, payloads):
        cache.use_engine(engine)
        packed, offsets = pack(payloads)
        block_cipher = NonDeterministicCipher(KEY, random.Random(3))
        many_cipher = NonDeterministicCipher(KEY, random.Random(3))
        ct, ct_offsets = block_cipher.encrypt_block(packed, offsets)
        assert unpack(ct, ct_offsets) == many_cipher.encrypt_many(payloads)
        plain, plain_offsets = block_cipher.decrypt_block(ct, ct_offsets)
        assert unpack(plain, plain_offsets) == payloads

    @settings(max_examples=10, deadline=None)
    @given(payloads=payload_lists)
    def test_det_block_matches_per_message_api(self, engine, payloads):
        cache.use_engine(engine)
        packed, offsets = pack(payloads)
        cipher = DeterministicCipher(KEY)
        ct, ct_offsets = cipher.encrypt_block(packed, offsets)
        assert unpack(ct, ct_offsets) == cipher.encrypt_many(payloads)
        plain, plain_offsets = cipher.decrypt_block(ct, ct_offsets)
        assert unpack(plain, plain_offsets) == payloads

    @settings(max_examples=10, deadline=None)
    @given(
        payloads=st.lists(st.binary(max_size=40), min_size=1, max_size=4),
        data=st.data(),
    )
    def test_tampered_block_rejected(self, engine, payloads, data):
        cache.use_engine(engine)
        packed, offsets = pack(payloads)
        cipher = NonDeterministicCipher(KEY, random.Random(5))
        ct, ct_offsets = cipher.encrypt_block(packed, offsets)
        index = data.draw(st.integers(0, len(ct) - 1))
        tampered = bytes(
            b ^ 0x01 if i == index else b for i, b in enumerate(ct)
        )
        with pytest.raises(DecryptionError):
            cipher.decrypt_block(tampered, ct_offsets)

    def test_truncated_block_rejected(self, engine):
        cache.use_engine(engine)
        cipher = NonDeterministicCipher(KEY, random.Random(5))
        packed, offsets = pack([b"hello world"])
        ct, ct_offsets = cipher.encrypt_block(packed, offsets)
        with pytest.raises(DecryptionError):
            # shrink the only message below nonce+tag framing
            cipher.decrypt_block(ct[:10], (0, 10))

    def test_det_tampered_block_rejected(self, engine):
        cache.use_engine(engine)
        cipher = DeterministicCipher(KEY)
        packed, offsets = pack([b"grp-a", b"grp-b"])
        ct, ct_offsets = cipher.encrypt_block(packed, offsets)
        tampered = bytes([ct[0] ^ 0x80]) + ct[1:]
        with pytest.raises(DecryptionError):
            cipher.decrypt_block(tampered, ct_offsets)
        with pytest.raises(DecryptionError):
            cipher.decrypt_block(ct[:8], (0, 8))

    def test_empty_block_roundtrip(self, engine):
        cache.use_engine(engine)
        cipher = NonDeterministicCipher(KEY)
        ct, ct_offsets = cipher.encrypt_block(b"", (0,))
        assert (ct, ct_offsets) == (b"", (0,))
        assert cipher.decrypt_block(ct, ct_offsets) == (b"", (0,))

    def test_nonce_count_mismatch_rejected(self, engine):
        cache.use_engine(engine)
        cipher = NonDeterministicCipher(KEY)
        packed, offsets = pack([b"one", b"two"])
        with pytest.raises(ValueError):
            cipher.encrypt_block(packed, offsets, nonces=[bytes(8)])
