"""The OpenSSL engine's persistent, per-thread EVP contexts.

``OpenSSLAES128`` keeps one CTR, one CBC and one ECB context per thread
and key instead of building them per call (DESIGN §2 "Crypto fast
path"), and runs a large uniform batch in lockstep on the ECB context.
What that must not change — bytes out, for any sequence of messages and
any batch shape, from any thread, after any failure — is pinned here
against the per-message loop and the per-byte oracle in
:mod:`repro.crypto.reference`.
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import cache
from repro.crypto.aes import AES128
from repro.crypto.det import DeterministicCipher
from repro.crypto.modes import _mac_message, cbc_mac_many, ctr_many
from repro.crypto.ndet import NonDeterministicCipher
from repro.crypto.reference import (
    ReferenceAES128,
    reference_cbc_mac,
    reference_ctr,
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


def ctr(engine, nonce, data):
    return ctr_many(engine, [nonce], [data])[0]


def mac(engine, data):
    return cbc_mac_many(engine, [data])[0]


def crossover(size: int, *, mac: bool) -> int:
    """The fewest equal-length messages of *size* bytes the engine runs
    in lockstep (one pass): more than its set-up plus its ECB steps."""
    steps = size // 16 if mac else 1
    return openssl._SETUP_LANES + steps + 1


def lockstep_batch(lanes: int, size: int, salt: int = 0):
    nonces = [(salt + lane).to_bytes(8, "big") for lane in range(lanes)]
    return nonces, [message(size, salt + lane) for lane in range(lanes)]


class TestMessagePrimitivesMatchTheReference:
    @pytest.mark.parametrize("length", BOUNDARY_LENGTHS)
    def test_boundary_lengths(self, length):
        engine = openssl.OpenSSLAES128(KEYS[0])
        oracle = ReferenceAES128(KEYS[0])
        data = message(length, 3)
        assert ctr(engine, NONCE, data) == reference_ctr(oracle, NONCE, data)
        assert mac(engine, data) == reference_cbc_mac(oracle, data)

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
                    assert mac(engines[which], data) == reference_cbc_mac(
                        oracles[which], data
                    )
                else:
                    assert ctr(engines[which], nonce, data) == reference_ctr(
                        oracles[which], nonce, data
                    )

    def test_long_message_between_short_ones(self):
        engine = openssl.OpenSSLAES128(KEYS[1])
        oracle = AES128(KEYS[1])  # pinned to the reference by test_fast_path
        lengths = (16, 4096, 0, 17, 4096, 1)
        datas = [message(length, length) for length in lengths]
        for data in datas:
            assert mac(engine, data) == mac(oracle, data)
            assert ctr(engine, NONCE, data) == ctr(oracle, NONCE, data)
        # the same messages as one batch: the chain carried from message
        # to message inside one call cancels just the same
        nonces = [bytes([length % 256]) * 8 for length in lengths]
        assert cbc_mac_many(engine, datas) == cbc_mac_many(oracle, datas)
        assert ctr_many(engine, nonces, datas) == ctr_many(oracle, nonces, datas)


LOCKSTEP_LENGTHS = [0, 1, 15, 16, 17, 256, 288]


def lanes_for(shape, size: int, *, mac: bool) -> int:
    if shape == "below":
        return crossover(size, mac=mac) - 1
    if shape == "at":
        return crossover(size, mac=mac)
    return shape


class TestLockstepMatchesTheLoop:
    """A uniform batch runs in lockstep on the ECB context, a small or
    ragged one loops: either way each message's bytes are what a batch
    of one (the loop) and the per-byte oracle give."""

    @settings(max_examples=40, deadline=None)
    @given(
        size=st.sampled_from(LOCKSTEP_LENGTHS),
        shape=st.sampled_from(["below", "at", 64, 250]),
        ragged=st.one_of(st.none(), st.integers(0, 249)),
        which=st.integers(0, len(KEYS) - 1),
    )
    def test_ctr(self, size, shape, ragged, which):
        lanes = lanes_for(shape, size, mac=False)
        nonces, datas = lockstep_batch(lanes, size, salt=which)
        if ragged is not None:
            datas[ragged % lanes] += b"!"
        assert bool(openssl._lockstep_lanes(datas, mac=False)) == (
            shape != "below" and ragged is None
        )
        engine = openssl.OpenSSLAES128(KEYS[which])
        got = ctr_many(engine, nonces, datas)
        assert got == [ctr(engine, n, d) for n, d in zip(nonces, datas)]
        oracle = ReferenceAES128(KEYS[which])
        for lane in {0, lanes // 2, lanes - 1}:
            assert got[lane] == reference_ctr(oracle, nonces[lane], datas[lane])

    @settings(max_examples=40, deadline=None)
    @given(
        size=st.sampled_from(LOCKSTEP_LENGTHS),
        shape=st.sampled_from(["below", "at", 64, 250]),
        ragged=st.one_of(st.none(), st.integers(0, 249)),
        which=st.integers(0, len(KEYS) - 1),
    )
    def test_cbc_mac(self, size, shape, ragged, which):
        # through the mode, whose length prefix and pad make every
        # message block-aligned: the engine sees the framed lengths
        framed = len(_mac_message(bytes(size)))
        lanes = lanes_for(shape, framed, mac=True)
        __, datas = lockstep_batch(lanes, size, salt=which)
        if ragged is not None:
            datas[ragged % lanes] += bytes(16)  # one block longer framed
        assert bool(
            openssl._lockstep_lanes([_mac_message(d) for d in datas], mac=True)
        ) == (shape != "below" and ragged is None)
        engine = openssl.OpenSSLAES128(KEYS[which])
        got = cbc_mac_many(engine, datas)
        assert got == [mac(engine, d) for d in datas]
        oracle = ReferenceAES128(KEYS[which])
        for lane in {0, lanes // 2, lanes - 1}:
            assert got[lane] == reference_cbc_mac(oracle, datas[lane])

    @pytest.mark.parametrize("size", [0, 16, 256, 288])
    @pytest.mark.parametrize("shape", ["below", "at", 64, 250])
    def test_raw_cbc_mac_cores(self, size, shape):
        # the engine call itself, unframed: empty messages included
        lanes = lanes_for(shape, size, mac=True)
        __, datas = lockstep_batch(lanes, size, salt=size)
        engine = openssl.OpenSSLAES128(KEYS[1])
        got = engine.cbc_mac_many(datas)
        assert got == [engine.cbc_mac_many([d])[0] for d in datas]
        oracle = ReferenceAES128(KEYS[1])
        for lane in {0, lanes // 2, lanes - 1}:
            assert got[lane] == oracle.cbc_mac_many([datas[lane]])[0]

    def test_empty_messages_in_a_ragged_batch(self):
        engine = openssl.OpenSSLAES128(KEYS[2])
        nonces, datas = lockstep_batch(64, 32)
        datas[::3] = [b""] * len(datas[::3])
        assert not openssl._lockstep_lanes(datas, mac=False)
        assert ctr_many(engine, nonces, datas) == [
            ctr(engine, n, d) for n, d in zip(nonces, datas)
        ]
        assert engine.cbc_mac_many(datas) == [
            engine.cbc_mac_many([d])[0] for d in datas
        ]

    def test_a_batch_over_one_pass_runs_in_equal_passes(self):
        size = 256
        per_pass = openssl._PASS_BYTES // size
        nonces, datas = lockstep_batch(2 * per_pass + 1, size)
        lanes = openssl._lockstep_lanes(datas, mac=False)
        assert per_pass * 2 // 3 < lanes <= per_pass
        engine = openssl.OpenSSLAES128(KEYS[0])
        assert ctr_many(engine, nonces, datas) == [
            ctr(engine, n, d) for n, d in zip(nonces, datas)
        ]
        framed = [d + bytes(16) for d in datas]
        assert engine.cbc_mac_many(framed) == [
            engine.cbc_mac_many([d])[0] for d in framed
        ]

    def test_a_long_message_loops(self):
        nonces, datas = lockstep_batch(250, openssl._MAX_LANE_BYTES + 16)
        assert not openssl._lockstep_lanes(datas, mac=False)
        assert not openssl._lockstep_lanes(datas, mac=True)


class TestThreads:
    def test_one_cached_engine_hammered_from_many_threads(self):
        # The loop thread's fleet and MultiQueryRunner's to_thread decrypts
        # share one cached engine.  A single shared context fails this: a
        # switch between reset_nonce and update, or between two MACs'
        # chaining values, corrupts the other thread's output.
        cache.use_engine("cryptography")
        enc = cache.aes_for_subkey(KEYS[0], b"nDet/enc")
        mac_engine = cache.aes_for_subkey(KEYS[0], b"nDet/mac")
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
                    ctr(oracle_enc, nonce, data),
                    mac(oracle_mac, data),
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
                if ctr(enc, nonce, data) != want_body:
                    wrong.append(("ctr", offset))
                if mac(mac_engine, data) != want_tag:
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

    def test_lockstep_batches_hammered_from_many_threads(self):
        # The same sharing, with batches large enough for the lockstep:
        # each thread needs its own ECB context, or one thread's counter
        # blocks or CBC-MAC state land in another's update_into.
        cache.use_engine("cryptography")
        enc = cache.aes_for_subkey(KEYS[1], b"nDet/enc")
        mac_engine = cache.aes_for_subkey(KEYS[1], b"nDet/mac")
        cache.use_engine("ttable")
        oracle_enc = cache.aes_for_subkey(KEYS[1], b"nDet/enc")
        oracle_mac = cache.aes_for_subkey(KEYS[1], b"nDet/mac")
        assert isinstance(enc, openssl.OpenSSLAES128)
        assert isinstance(oracle_enc, AES128)
        cases = []
        for salt in range(6):
            nonces, datas = lockstep_batch(64, 16 * (salt + 1), salt=salt)
            assert openssl._lockstep_lanes(datas, mac=True)
            cases.append(
                (
                    nonces,
                    datas,
                    ctr_many(oracle_enc, nonces, datas),
                    oracle_mac.cbc_mac_many(datas),
                )
            )
        wrong: list[tuple[str, int]] = []
        rounds = 150
        together = threading.Barrier(5)

        def hammer(offset: int) -> None:
            together.wait(timeout=30)
            for turn in range(rounds):
                nonces, datas, want_bodies, want_tags = cases[
                    (offset + turn) % len(cases)
                ]
                if ctr_many(enc, nonces, datas) != want_bodies:
                    wrong.append(("ctr", offset))
                if mac_engine.cbc_mac_many(datas) != want_tags:
                    wrong.append(("mac", offset))

        threads = [
            threading.Thread(target=hammer, args=(n,)) for n in range(1, 5)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            hammer(0)
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


class CountingCipher:
    """Stands in for ``cryptography``'s ``Cipher``: counts constructions."""

    built = 0
    modes: list[str] = []

    def __init__(self, algorithm, mode):
        type(self).built += 1
        type(self).modes.append(type(mode).__name__)
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

    def test_lockstep_batches_add_one_ecb_context_per_engine(self, monkeypatch):
        monkeypatch.setattr(openssl, "Cipher", CountingCipher)
        monkeypatch.setattr(CountingCipher, "modes", [])
        cache.use_engine("cryptography")
        cache.clear()
        ndet = NonDeterministicCipher(KEYS[1])
        det = DeterministicCipher(KEYS[1])
        for turn in range(50):
            datas = lockstep_batch(64, 40, salt=turn)[1]
            assert ndet.decrypt_many(ndet.encrypt_many(datas)) == datas
            assert det.decrypt_many(det.encrypt_many(datas)) == datas
        # one ECB context on each scheme's enc and MAC engine, beside
        # use_engine's CTR probe; the loop's CTR and CBC contexts are
        # never built
        assert sorted(CountingCipher.modes) == ["CTR"] + ["ECB"] * 4

        def elsewhere():
            datas = lockstep_batch(64, 40)[1]
            assert ndet.decrypt_many(ndet.encrypt_many(datas)) == datas

        del CountingCipher.modes[:]
        thread = threading.Thread(target=elsewhere)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert CountingCipher.modes == ["ECB", "ECB"]  # that thread's own


class FailingContext:
    """A context whose ``update`` dies mid-message, state advanced."""

    def __init__(self, real):
        self._real = real

    def reset_nonce(self, nonce):
        self._real.reset_nonce(nonce)

    def update(self, data):
        self._real.update(bytes(data)[:16])
        raise RuntimeError("injected EVP failure")

    def update_into(self, data, buf):
        self._real.update_into(bytes(data)[:16], buf)
        raise RuntimeError("injected EVP failure")


class TestFailedContextIsDiscarded:
    def test_mac_after_a_failed_update_is_correct(self):
        engine = openssl.OpenSSLAES128(KEYS[0])
        oracle = AES128(KEYS[0])
        data = message(100, 9)
        assert mac(engine, data) == mac(oracle, data)
        engine._local.cbc = FailingContext(engine._local.cbc)
        with pytest.raises(RuntimeError):
            mac(engine, data)
        assert not hasattr(engine._local, "cbc")
        assert mac(engine, data) == mac(oracle, data)

    def test_ctr_after_a_failed_update_is_correct(self):
        engine = openssl.OpenSSLAES128(KEYS[0])
        oracle = AES128(KEYS[0])
        data = message(100, 4)
        assert ctr(engine, NONCE, data) == ctr(oracle, NONCE, data)
        engine._local.ctr = FailingContext(engine._local.ctr)
        with pytest.raises(RuntimeError):
            ctr(engine, NONCE, data)
        assert not hasattr(engine._local, "ctr")
        assert ctr(engine, NONCE, data) == ctr(oracle, NONCE, data)

    @pytest.mark.parametrize("operation", ["ctr", "mac"])
    def test_lockstep_after_a_failed_update_is_correct(self, operation):
        engine = openssl.OpenSSLAES128(KEYS[2])
        oracle = AES128(KEYS[2])
        nonces, datas = lockstep_batch(64, 48, salt=3)
        assert openssl._lockstep_lanes(datas, mac=True)

        def run(cipher):
            if operation == "ctr":
                return ctr_many(cipher, nonces, datas)
            return cipher.cbc_mac_many(datas)

        assert run(engine) == run(oracle)
        engine._local.ecb = FailingContext(engine._local.ecb)
        with pytest.raises(RuntimeError):
            run(engine)
        assert not hasattr(engine._local, "ecb")
        assert run(engine) == run(oracle)

    def test_rejected_input_leaves_the_engine_usable(self):
        engine = openssl.OpenSSLAES128(KEYS[0])
        oracle = AES128(KEYS[0])
        with pytest.raises(TypeError):
            ctr(engine, NONCE, "not bytes")
        with pytest.raises(ValueError):
            engine.cbc_mac_many([b"not block aligned"])
        assert ctr(engine, NONCE, b"abc") == ctr(oracle, NONCE, b"abc")
        assert mac(engine, b"abc") == mac(oracle, b"abc")


class CallCountingContext:
    """A real context that counts its native calls by cipher mode."""

    def __init__(self, real, mode: str, calls: dict[str, int]) -> None:
        self._real, self._mode, self._calls = real, mode, calls

    def reset_nonce(self, nonce):
        self._real.reset_nonce(nonce)

    def update(self, data):
        self._calls[self._mode] = self._calls.get(self._mode, 0) + 1
        return self._real.update(data)

    def update_into(self, data, buf):
        self._calls[self._mode] = self._calls.get(self._mode, 0) + 1
        return self._real.update_into(data, buf)


@pytest.fixture
def native_calls(monkeypatch) -> dict[str, int]:
    """Native ``update`` calls per mode (``CTR``, ``CBC``, ``ECB``) on
    fresh OpenSSL engines built after the fixture."""
    calls: dict[str, int] = {}

    class Counting:
        def __init__(self, algorithm, mode):
            self._real = REAL_CIPHER(algorithm, mode)
            self._mode = type(mode).__name__

        def encryptor(self):
            return CallCountingContext(self._real.encryptor(), self._mode, calls)

    monkeypatch.setattr(openssl, "Cipher", Counting)
    cache.use_engine("cryptography")
    cache.clear()
    return calls


class TestNativeCallCounts:
    """The lockstep's cost is a fixed number of ECB passes per batch —
    counted, not timed.  A 256-byte tuple seals to a 16-block CTR and an
    18-block CBC-MAC (8-byte length + 8-byte nonce + 256-byte body, padded)."""

    @pytest.mark.parametrize("lanes", [crossover(288, mac=True), 64, 250])
    def test_a_tuple_block_is_one_ctr_pass_and_one_pass_per_mac_block(
        self, native_calls, lanes
    ):
        cipher = NonDeterministicCipher(KEYS[0])
        payloads = message(lanes * 256, 5)
        offsets = tuple(range(0, lanes * 256 + 1, 256))
        sealed, sealed_offsets = cipher.encrypt_block(payloads, offsets)
        assert native_calls == {"ECB": 1 + 18}
        native_calls.clear()
        assert cipher.decrypt_block(sealed, sealed_offsets) == (payloads, offsets)
        assert native_calls == {"ECB": 18 + 1}

    @pytest.mark.parametrize("lanes", [1, 4])
    def test_a_small_batch_is_one_ctr_and_one_cbc_call_per_message(
        self, native_calls, lanes
    ):
        cipher = NonDeterministicCipher(KEYS[0])
        datas = [message(256, lane) for lane in range(lanes)]
        sealed = cipher.encrypt_many(datas)
        assert native_calls == {"CTR": lanes, "CBC": lanes}
        native_calls.clear()
        assert cipher.decrypt_many(sealed) == datas
        assert native_calls == {"CTR": lanes, "CBC": lanes}


#: run with numpy blocked: the OpenSSL engine must loop every batch
NO_NUMPY = """
import json, sys
sys.modules["numpy"] = None
from repro.crypto import openssl
assert openssl._np is None
engine = openssl.OpenSSLAES128(bytes(range(16)))
out = []
for lanes, size in json.loads(sys.argv[1]):
    nonces = [lane.to_bytes(8, "big") for lane in range(lanes)]
    datas = [bytes((lane + 7 * i) & 0xFF for i in range(size)) for lane in range(lanes)]
    out.append([body.hex() for body in engine.ctr_many(nonces, datas)])
    out.append([tag.hex() for tag in engine.cbc_mac_many(datas)])
print(json.dumps(out))
"""


class TestWithoutNumpy:
    def test_the_loop_gives_the_lockstep_bytes(self):
        shapes = [(64, 256), (250, 288), (crossover(32, mac=True), 32)]
        src = Path(openssl.__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(src))
        result = subprocess.run(
            [sys.executable, "-c", NO_NUMPY, json.dumps(shapes)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        engine = openssl.OpenSSLAES128(bytes(range(16)))
        want = []
        for lanes, size in shapes:
            nonces, datas = lockstep_batch(lanes, size)
            assert openssl._lockstep_lanes(datas, mac=True)
            want.append([body.hex() for body in engine.ctr_many(nonces, datas)])
            want.append([tag.hex() for tag in engine.cbc_mac_many(datas)])
        assert json.loads(result.stdout) == want


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
