"""Reference (per-byte) AES-128 and chaining modes — the correctness oracle.

This is the original straightforward FIPS-197 implementation that shipped
with the seed: SubBytes / ShiftRows / MixColumns as explicit byte loops,
and CTR / CBC-MAC as per-byte XOR loops.  It is deliberately *slow* and
deliberately kept:

* the fast T-table implementation in :mod:`repro.crypto.aes` is validated
  against it by a randomized equivalence property test — any divergence on
  any (key, block) pair is a bug in the fast path;
* the crypto throughput benchmark (``benchmarks/bench_crypto_throughput``)
  uses it as the "before" baseline so the reported speedup measures the
  fast path, not drift in the harness.

Nothing outside tests and benchmarks should import this module.
"""

from __future__ import annotations

from repro.crypto.aes import (
    _INV_SBOX,
    _MUL2,
    _MUL3,
    _MUL9,
    _MUL11,
    _MUL13,
    _MUL14,
    _SBOX,
    BLOCK_SIZE,
    CipherEngine,
    expand_key,
)


def _add_round_key(state: bytearray, round_key: bytes) -> None:
    for i in range(16):
        state[i] ^= round_key[i]


def _sub_bytes(state: bytearray) -> None:
    for i in range(16):
        state[i] = _SBOX[state[i]]


def _inv_sub_bytes(state: bytearray) -> None:
    for i in range(16):
        state[i] = _INV_SBOX[state[i]]


# State is stored column-major as in FIPS-197: byte (row r, column c) lives
# at index 4*c + r.
def _shift_rows(state: bytearray) -> None:
    s = state
    s[1], s[5], s[9], s[13] = s[5], s[9], s[13], s[1]
    s[2], s[6], s[10], s[14] = s[10], s[14], s[2], s[6]
    s[3], s[7], s[11], s[15] = s[15], s[3], s[7], s[11]


def _inv_shift_rows(state: bytearray) -> None:
    s = state
    s[5], s[9], s[13], s[1] = s[1], s[5], s[9], s[13]
    s[10], s[14], s[2], s[6] = s[2], s[6], s[10], s[14]
    s[15], s[3], s[7], s[11] = s[3], s[7], s[11], s[15]


def _mix_columns(state: bytearray) -> None:
    for c in range(0, 16, 4):
        a0, a1, a2, a3 = state[c], state[c + 1], state[c + 2], state[c + 3]
        state[c] = _MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3
        state[c + 1] = a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3
        state[c + 2] = a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3]
        state[c + 3] = _MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3]


def _inv_mix_columns(state: bytearray) -> None:
    for c in range(0, 16, 4):
        a0, a1, a2, a3 = state[c], state[c + 1], state[c + 2], state[c + 3]
        state[c] = _MUL14[a0] ^ _MUL11[a1] ^ _MUL13[a2] ^ _MUL9[a3]
        state[c + 1] = _MUL9[a0] ^ _MUL14[a1] ^ _MUL11[a2] ^ _MUL13[a3]
        state[c + 2] = _MUL13[a0] ^ _MUL9[a1] ^ _MUL14[a2] ^ _MUL11[a3]
        state[c + 3] = _MUL11[a0] ^ _MUL13[a1] ^ _MUL9[a2] ^ _MUL14[a3]


_NUM_ROUNDS = 10


class ReferenceAES128(CipherEngine):
    """The seed's per-byte AES-128 block cipher (oracle / baseline).

    As an engine it supplies the block transform only; both batch
    primitives are :class:`CipherEngine`'s per-block loops."""

    __slots__ = ("_round_keys",)

    def __init__(self, key: bytes) -> None:
        self._round_keys = expand_key(key)

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        state = bytearray(block)
        _add_round_key(state, self._round_keys[0])
        for round_index in range(1, _NUM_ROUNDS):
            _sub_bytes(state)
            _shift_rows(state)
            _mix_columns(state)
            _add_round_key(state, self._round_keys[round_index])
        _sub_bytes(state)
        _shift_rows(state)
        _add_round_key(state, self._round_keys[_NUM_ROUNDS])
        return bytes(state)

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt exactly one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        state = bytearray(block)
        _add_round_key(state, self._round_keys[_NUM_ROUNDS])
        for round_index in range(_NUM_ROUNDS - 1, 0, -1):
            _inv_shift_rows(state)
            _inv_sub_bytes(state)
            _add_round_key(state, self._round_keys[round_index])
            _inv_mix_columns(state)
        _inv_shift_rows(state)
        _inv_sub_bytes(state)
        _add_round_key(state, self._round_keys[0])
        return bytes(state)


def reference_ctr(cipher: ReferenceAES128, nonce: bytes, data: bytes) -> bytes:
    """The seed's per-byte CTR loop (benchmark baseline)."""
    if len(nonce) != 8:
        raise ValueError(f"CTR nonce must be 8 bytes, got {len(nonce)}")
    out = bytearray(len(data))
    for block_index in range((len(data) + BLOCK_SIZE - 1) // BLOCK_SIZE):
        counter_block = nonce + block_index.to_bytes(8, "big")
        keystream = cipher.encrypt_block(counter_block)
        offset = block_index * BLOCK_SIZE
        chunk = data[offset : offset + BLOCK_SIZE]
        for i, byte in enumerate(chunk):
            out[offset + i] = byte ^ keystream[i]
    return bytes(out)


def reference_cbc_mac(cipher: ReferenceAES128, data: bytes) -> bytes:
    """The seed's per-byte CBC-MAC loop (benchmark baseline)."""
    message = len(data).to_bytes(8, "big") + data
    pad_len = BLOCK_SIZE - (len(message) % BLOCK_SIZE)
    message = message + bytes([pad_len]) * pad_len
    mac = bytes(BLOCK_SIZE)
    for offset in range(0, len(message), BLOCK_SIZE):
        block = bytes(message[offset + i] ^ mac[i] for i in range(BLOCK_SIZE))
        mac = cipher.encrypt_block(block)
    return mac
