"""Parity fuzz of the cipher call shapes across every engine.

The three shapes (one message, a list, a packed buffer + offsets) are
adapters over one kernel per direction: they must be byte-for-byte
identical to one another and identical *across engines* — the reference
per-byte implementation is the oracle.  Tampered or truncated blocks
must die with :class:`DecryptionError` on every engine.
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
def restore_engine(reference_engine):
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


def assert_every_shape_agrees(make, payloads: list[bytes]) -> None:
    """Each message seals to the same bytes through ``encrypt``,
    ``encrypt_many`` and its ``encrypt_block`` segment, and every decrypt
    shape opens every encrypt shape's output.  ``make`` builds a fresh
    cipher; nDet ciphers must draw nonces from ``random.Random(3)``."""
    packed, offsets = pack(payloads)
    rng = random.Random(3)
    nonces = [rng.getrandbits(64).to_bytes(8, "big") for __ in payloads]
    cipher = make()
    single = [cipher.encrypt(payload) for payload in payloads]
    many = make().encrypt_many(payloads)
    block_kwargs = {} if cipher.deterministic else {"nonces": nonces}
    block = unpack(*make().encrypt_block(packed, offsets, **block_kwargs))
    assert single == many == block
    for ciphertexts in (single, many, block):
        assert [cipher.decrypt(c) for c in ciphertexts] == payloads
        assert cipher.decrypt_many(ciphertexts) == payloads
        plain, plain_offsets = cipher.decrypt_block(*pack(ciphertexts))
        assert (plain, plain_offsets) == (packed, offsets)


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
        assert_every_shape_agrees(
            lambda: NonDeterministicCipher(KEY, random.Random(3)), payloads
        )

    @settings(max_examples=10, deadline=None)
    @given(payloads=payload_lists)
    def test_det_block_matches_per_message_api(self, engine, payloads):
        cache.use_engine(engine)
        assert_every_shape_agrees(lambda: DeterministicCipher(KEY), payloads)

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
