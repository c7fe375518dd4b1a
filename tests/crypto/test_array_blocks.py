"""A uniform batch sealed and opened as one array, against the per-message path.

``NonDeterministicCipher`` seals a block of equal-length messages, and
opens one, as one ``(lanes, size)`` array when its engine has an array
lockstep (OpenSSL, with numpy) and the batch is past the engine's
crossover; any other batch takes the per-message kernel.  Which path ran
must not show in the bytes: a seeded seal is pinned to the per-message
kernel fed one ``getrandbits(64)`` draw per message (what every seal did
before the array path) and to the per-byte oracle, and an open rejects
the same tampering with the same error.  With numpy blocked the same
assertions hold over the per-message path alone.
"""

import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.crypto import cache
from repro.crypto.modes import _segments
from repro.crypto.ndet import NonDeterministicCipher
from repro.exceptions import DecryptionError

try:
    from repro.crypto import openssl
except ImportError:  # pragma: no cover - environment without cryptography
    openssl = None


def one_engine(examples: int) -> settings:
    """Settings of a test whose engine fixture holds for all its examples
    (it only selects the engine)."""
    return settings(
        max_examples=examples,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )


ENGINES = ["ttable"] + (["cryptography"] if openssl is not None else [])
KEY = bytes(range(48, 64))
#: the engine's fixed cost (the value it had when these tests were
#: written stands in where the engine is missing)
SETUP = openssl._ARRAY_SETUP if openssl is not None else 6


def crossover(size: int) -> int:
    """The fewest messages of *size* bytes sealed as one array."""
    return SETUP + (size + 15) // 16 // 4 + 1


#: for the tuple-sized messages most tests use
CROSSOVER = crossover(256)
#: a 256-byte tuple's MAC framing is 288 bytes: this many lanes take more
#: than one 96 KiB lockstep pass
MULTI_PASS = 400
LANES = [0, 1, CROSSOVER - 1, CROSSOVER, 62, 250, MULTI_PASS]
SIZES = [1, 15, 16, 17, 48, 256]


@pytest.fixture(params=ENGINES)
def engine(request):
    cache.use_engine(request.param)
    cache.clear()
    yield request.param
    cache.use_engine("auto")
    cache.clear()


def arrays_on(name: str) -> bool:
    return name == "cryptography" and openssl._np is not None


def block(lanes: int, size: int, salt: int = 0) -> tuple[bytes, tuple[int, ...]]:
    payloads = bytes((salt + 31 * i) & 0xFF for i in range(lanes * size))
    return payloads, tuple(size * lane for lane in range(lanes + 1))


def draws(seed: int, count: int) -> list[bytes]:
    """One ``getrandbits(64)`` per nonce, big-endian."""
    rng = random.Random(seed)
    return [rng.getrandbits(64).to_bytes(8, "big") for __ in range(count)]


def flip(data: bytes, index: int) -> bytes:
    return data[:index] + bytes([data[index] ^ 0x01]) + data[index + 1 :]


class TestNonceStream:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), count=st.integers(0, 600))
    @example(seed=5, count=0)
    @example(seed=5, count=1)
    @example(seed=5, count=4000)
    def test_one_call_is_one_draw_per_nonce(self, seed, count):
        rng = random.Random(seed)
        want = draws(seed, count + 1)
        assert NonDeterministicCipher(KEY, rng)._nonces(count) == b"".join(want[:-1])
        # and the rng is left where one draw per nonce leaves it
        assert rng.getrandbits(64).to_bytes(8, "big") == want[-1]
        cipher = NonDeterministicCipher(KEY, random.Random(seed))
        assert cipher.fresh_nonces(count) == want[:-1]

    def test_without_an_rng_nonces_are_fresh(self):
        cipher = NonDeterministicCipher(KEY)
        assert len(cipher._nonces(3)) == 24
        assert cipher._nonces(0) == b""
        assert cipher._nonces(4) != cipher._nonces(4)


class TestSealParity:
    @one_engine(40)
    @given(
        lanes=st.sampled_from(LANES),
        size=st.sampled_from(SIZES),
        seed=st.integers(0, 2**16),
    )
    def test_seeded_seal_is_the_per_message_seal(self, engine, lanes, size, seed):
        payloads, offsets = block(lanes, size, seed)
        packed = NonDeterministicCipher(KEY, random.Random(seed)).encrypt_block(
            payloads, offsets
        )
        # explicit nonces always take the per-message kernel
        loop = NonDeterministicCipher(KEY).encrypt_block(
            payloads, offsets, nonces=draws(seed, lanes)
        )
        assert packed == loop
        listed = NonDeterministicCipher(KEY, random.Random(seed)).encrypt_many(
            [bytes(segment) for segment in _segments(payloads, offsets)]
        )
        assert b"".join(listed) == packed[0]

    @pytest.mark.parametrize("size", [48, 256, 1024])
    @pytest.mark.parametrize("shape", ["below", "at", 250])
    def test_the_path_is_chosen_by_the_batch_alone(self, engine, size, shape, monkeypatch):
        lanes = {"below": crossover(size) - 1, "at": crossover(size)}.get(shape, shape)
        seals = []
        real = NonDeterministicCipher._seal_lanes

        def counting(self, plaintexts):
            seals.append(len(plaintexts))
            return real(self, plaintexts)

        monkeypatch.setattr(NonDeterministicCipher, "_seal_lanes", counting)
        cipher = NonDeterministicCipher(KEY, random.Random(1))
        cipher.encrypt_block(*block(lanes, size))
        ragged = [bytes(size)] * (lanes - 1) + [bytes(size + 1)]
        cipher.encrypt_many(ragged)
        cipher.encrypt_many([bytes(2048)] * lanes)  # past the longest lane
        arrays = arrays_on(engine) and shape != "below"
        assert seals == ([lanes] if arrays else [])

    @pytest.mark.parametrize("lanes", [1, CROSSOVER, 250])
    def test_oracle_bytes(self, engine, lanes, reference_engine):
        payloads, offsets = block(lanes, 256, 3)
        sealed, sealed_offsets = NonDeterministicCipher(
            KEY, random.Random(9)
        ).encrypt_block(payloads, offsets)
        nonces = draws(9, lanes)
        cache.use_engine("reference")
        oracle = NonDeterministicCipher(KEY)
        for lane in sorted({0, lanes // 2, lanes - 1}):
            a, b = offsets[lane], offsets[lane + 1]
            want, __ = oracle.encrypt_block(
                payloads[a:b], (0, b - a), nonces=[nonces[lane]]
            )
            assert sealed[sealed_offsets[lane] : sealed_offsets[lane + 1]] == want


class TestOpenParity:
    @one_engine(40)
    @given(
        lanes=st.sampled_from(LANES),
        size=st.sampled_from([0] + SIZES),
        seed=st.integers(0, 2**16),
    )
    def test_open_is_the_per_message_open(self, engine, lanes, size, seed):
        payloads, offsets = block(lanes, size, seed)
        cipher = NonDeterministicCipher(KEY, random.Random(seed))
        sealed, sealed_offsets = cipher.encrypt_block(payloads, offsets)
        assert cipher.decrypt_block(sealed, sealed_offsets) == (payloads, offsets)
        segments = _segments(sealed, sealed_offsets)
        want = [bytes(segment) for segment in _segments(payloads, offsets)]
        assert cipher.decrypt_many(segments) == want
        assert cipher._open(segments) == want

    @one_engine(30)
    @given(
        sizes=st.lists(st.sampled_from([16, 17, 256]), min_size=CROSSOVER, max_size=70),
        seed=st.integers(0, 2**16),
    )
    def test_ragged_batches(self, engine, sizes, seed):
        cipher = NonDeterministicCipher(KEY, random.Random(seed))
        messages = [bytes([i % 251]) * size for i, size in enumerate(sizes)]
        sealed = cipher.encrypt_many(messages)
        loop = NonDeterministicCipher(KEY)._seal(messages, draws(seed, len(sizes)))
        assert sealed == loop
        assert cipher.decrypt_many(sealed) == messages


@pytest.mark.parametrize("lanes", [CROSSOVER, 62, 250])
class TestRejection:
    """A uniform block with one flipped byte — in the nonce, the body or
    the tag of its first, a middle or its last lane — is one trust
    decision, refused whole."""

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("part", ["nonce", "body", "tag"])
    def test_flipped_byte(self, engine, lanes, where, part):
        cipher = NonDeterministicCipher(KEY, random.Random(2))
        sealed, offsets = cipher.encrypt_block(*block(lanes, 256))
        lane = {"first": 0, "middle": lanes // 2, "last": lanes - 1}[where]
        within = {"nonce": 3, "body": 8 + 100, "tag": 256 + 24 - 1}[part]
        tampered = flip(sealed, offsets[lane] + within)
        with pytest.raises(DecryptionError, match="tag mismatch"):
            cipher.decrypt_block(tampered, offsets)
        with pytest.raises(DecryptionError, match="tag mismatch"):
            cipher.decrypt_many(_segments(tampered, offsets))

    def test_lanes_shorter_than_the_overhead(self, engine, lanes):
        cipher = NonDeterministicCipher(KEY)
        short = bytes(lanes * 23)
        offsets = tuple(range(0, len(short) + 1, 23))
        with pytest.raises(DecryptionError, match="too short"):
            cipher.decrypt_block(short, offsets)
        with pytest.raises(DecryptionError, match="too short"):
            cipher.decrypt_many(_segments(short, offsets))

    def test_one_short_lane(self, engine, lanes):
        cipher = NonDeterministicCipher(KEY, random.Random(4))
        sealed = cipher.encrypt_many([bytes(40)] * lanes)
        sealed[lanes // 2] = sealed[lanes // 2][:20]
        with pytest.raises(DecryptionError, match="too short"):
            cipher.decrypt_many(sealed)
