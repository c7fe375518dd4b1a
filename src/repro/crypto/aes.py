"""Pure-Python AES-128 block cipher — T-table fast path.

The paper's secure device embeds a crypto-coprocessor implementing AES in
hardware (one 128-bit block costs 167 cycles at 120 MHz, §6.2).  This module
is the software stand-in: a complete, dependency-free AES-128 used by the
deterministic and non-deterministic encryption schemes of
:mod:`repro.crypto.det` and :mod:`repro.crypto.ndet`.

Because every byte a TDS moves is AES ciphertext, this block transform is
the hottest loop of the whole reproduction.  It therefore uses the classic
32-bit **T-table** formulation: SubBytes, ShiftRows and MixColumns collapse
into four 256-entry word tables (plus four inverse tables for decryption),
so one round of one column is four table lookups and four XORs instead of
~40 byte operations.  Key schedules are expanded once and memoized per key
(:data:`_SCHEDULE_CACHE`), which matters because the protocol layer derives
the same subkeys for every tuple it touches.

The slow-but-obvious byte-loop implementation this replaced lives on in
:mod:`repro.crypto.reference`; a randomized property test pins the two to
identical outputs, and the FIPS-197 / NIST SP 800-38A vectors in the test
suite pin both to the standard.

Only the raw block transform lives here; chaining modes are built on top in
:mod:`repro.crypto.modes`.
"""

from __future__ import annotations

from struct import Struct
from typing import Any, Sequence

from repro.exceptions import InvalidKeyError


try:  # optional vectorized bulk engine; the scalar T-tables are the fallback
    import numpy as _np
except ImportError:  # pragma: no cover - environment without numpy
    _np = None

BLOCK_SIZE = 16
KEY_SIZE = 16
_NUM_ROUNDS = 10


def blocks_in(size: int) -> int:
    """AES blocks covering *size* bytes (the CTR block count of a message)."""
    return (size + BLOCK_SIZE - 1) // BLOCK_SIZE


def xor_bytes(data: bytes | memoryview, keystream: bytes) -> bytes:
    """XOR *data* against the (at least as long) *keystream* in one shot."""
    n = len(data)
    if n == 0:
        return b""
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(keystream[:n], "big")
    ).to_bytes(n, "big")


def xor_packed(
    view: memoryview, offsets: Sequence[int], keystream: bytes
) -> bytes:
    """XOR the messages packed in *view* against a packed *keystream*
    (message *i*'s stream starts block-aligned where *i - 1*'s ended, the
    layout :meth:`AES128._keystreams` returns)."""
    if _np is not None and len(view) >= 512:
        data = _np.frombuffer(view, dtype=_np.uint8)
        stream = _np.frombuffer(keystream, dtype=_np.uint8)
        if len(keystream) == len(view):
            # Every message is block-aligned, so the packed keystream
            # lines up byte-for-byte with the packed data: one flat XOR,
            # no gather.
            return (data ^ stream).tobytes()
        # Per-byte keystream positions: message i's data byte j maps to
        # keystream byte (16 * cum_blocks[i]) + (j - offsets[i]).
        bounds = _np.array(offsets, dtype=_np.int64)
        sizes = bounds[1:] - bounds[:-1]
        counts = (sizes + (BLOCK_SIZE - 1)) // BLOCK_SIZE
        ks_starts = (_np.cumsum(counts) - counts) * BLOCK_SIZE
        positions = (
            _np.repeat(ks_starts - bounds[:-1], sizes)
            + _np.arange(len(view), dtype=_np.int64)
        ).astype(_np.intp, copy=False)
        return (data ^ stream[positions]).tobytes()
    pieces = []
    cursor = 0
    for i in range(len(offsets) - 1):
        segment = view[offsets[i] : offsets[i + 1]]
        span = blocks_in(len(segment)) * BLOCK_SIZE
        pieces.append(xor_bytes(segment, keystream[cursor : cursor + span]))
        cursor += span
    return b"".join(pieces)


class CipherEngine:
    """The engine surface the chaining modes call — declared, not probed.

    An engine supplies the two block transforms.  Everything above them
    has a default here: the message primitives (:meth:`ctr_transform`,
    :meth:`cbc_mac_words`) fall back to per-block loops, and the batch
    and packed forms are plain loops over the message primitives.  An
    engine overrides what it can do better: OpenSSL the two message
    primitives (the AES is native, so a loop of messages is already
    optimal), the T-table engine the batch forms (its block function is
    Python, so it fuses a whole batch into one numpy pass).
    """

    __slots__ = ()

    def encrypt_block(self, block: bytes) -> bytes:
        raise NotImplementedError

    def decrypt_block(self, block: bytes) -> bytes:
        raise NotImplementedError

    # -- message primitives -------------------------------------------- #
    def ctr_keystream(self, nonce: bytes, num_blocks: int) -> bytes:
        """The CTR keystream for counter blocks ``nonce || 0..num_blocks-1``."""
        if len(nonce) != 8:
            raise ValueError(f"CTR nonce must be 8 bytes, got {len(nonce)}")
        return b"".join(
            self.encrypt_block(nonce + counter.to_bytes(8, "big"))
            for counter in range(num_blocks)
        )

    def ctr_transform(self, nonce: bytes, data: bytes | memoryview) -> bytes:
        """Encrypt or decrypt one message in CTR mode (symmetric)."""
        return xor_bytes(data, self.ctr_keystream(nonce, blocks_in(len(data))))

    def cbc_mac_words(self, message: bytes) -> bytes:
        """CBC-MAC core over a block-aligned *message* (zero IV)."""
        if len(message) % BLOCK_SIZE:
            raise ValueError("CBC-MAC core needs a block-aligned message")
        mac = bytes(BLOCK_SIZE)
        for offset in range(0, len(message), BLOCK_SIZE):
            mac = self.encrypt_block(
                xor_bytes(message[offset : offset + BLOCK_SIZE], mac)
            )
        return mac

    # -- batch and packed forms ---------------------------------------- #
    def ctr_transform_many(
        self, nonces: Sequence[bytes], messages: Sequence[bytes]
    ) -> list[bytes]:
        """CTR-transform a batch of messages."""
        return list(map(self.ctr_transform, nonces, messages))

    def ctr_transform_packed(
        self, nonces: Sequence[bytes], view: memoryview, offsets: Sequence[int]
    ) -> bytes:
        """CTR-transform the messages packed in *view* (message *i* spans
        ``offsets[i]:offsets[i + 1]``), returning them packed alike."""
        return b"".join(
            [
                self.ctr_transform(nonce, view[offsets[i] : offsets[i + 1]])
                for i, nonce in enumerate(nonces)
            ]
        )

    def cbc_mac_many(self, messages: Sequence[bytes]) -> list[bytes]:
        """CBC-MAC cores of a batch of block-aligned messages."""
        return list(map(self.cbc_mac_words, messages))


# FIPS-197 substitution box and its inverse.
_SBOX = bytes.fromhex(
    "637c777bf26b6fc53001672bfed7ab76"
    "ca82c97dfa5947f0add4a2af9ca472c0"
    "b7fd9326363ff7cc34a5e5f171d83115"
    "04c723c31896059a071280e2eb27b275"
    "09832c1a1b6e5aa0523bd6b329e32f84"
    "53d100ed20fcb15b6acbbe394a4c58cf"
    "d0efaafb434d338545f9027f503c9fa8"
    "51a3408f929d38f5bcb6da2110fff3d2"
    "cd0c13ec5f974417c4a77e3d645d1973"
    "60814fdc222a908846eeb814de5e0bdb"
    "e0323a0a4906245cc2d3ac629195e479"
    "e7c8376d8dd54ea96c56f4ea657aae08"
    "ba78252e1ca6b4c6e8dd741f4bbd8b8a"
    "703eb5664803f60e613557b986c11d9e"
    "e1f8981169d98e949b1e87e9ce5528df"
    "8ca1890dbfe6426841992d0fb054bb16"
)
_INV_SBOX = bytearray(256)
for _i, _v in enumerate(_SBOX):
    _INV_SBOX[_v] = _i
_INV_SBOX = bytes(_INV_SBOX)

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


def _xtime(a: int) -> int:
    """Multiply by x (i.e. 2) in GF(2^8) modulo the AES polynomial."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a


def _gmul(a: int, b: int) -> int:
    """Multiply two bytes in GF(2^8)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


# Byte-wise multiplication tables (shared with the reference implementation
# and used to build the T-tables below).
_MUL2 = bytes(_gmul(i, 2) for i in range(256))
_MUL3 = bytes(_gmul(i, 3) for i in range(256))
_MUL9 = bytes(_gmul(i, 9) for i in range(256))
_MUL11 = bytes(_gmul(i, 11) for i in range(256))
_MUL13 = bytes(_gmul(i, 13) for i in range(256))
_MUL14 = bytes(_gmul(i, 14) for i in range(256))

# ---------------------------------------------------------------------- #
# T-tables.  State is four big-endian 32-bit column words; byte (row r,
# column c) of FIPS-197 is bits [24-8r .. 31-8r] of word c.  _TE[k][x] is
# the MixColumns output column contributed by S-box output S[x] sitting in
# row k after ShiftRows; _TD[k][x] is the InvMixColumns column contributed
# by InvS-box output in row k.  One encryption round of one column is then
# four lookups and four XORs.
# ---------------------------------------------------------------------- #


def _build_encrypt_tables() -> tuple[tuple[int, ...], ...]:
    t0, t1, t2, t3 = [], [], [], []
    for x in range(256):
        s = _SBOX[x]
        s2, s3 = _MUL2[s], _MUL3[s]
        t0.append((s2 << 24) | (s << 16) | (s << 8) | s3)
        t1.append((s3 << 24) | (s2 << 16) | (s << 8) | s)
        t2.append((s << 24) | (s3 << 16) | (s2 << 8) | s)
        t3.append((s << 24) | (s << 16) | (s3 << 8) | s2)
    return tuple(t0), tuple(t1), tuple(t2), tuple(t3)


def _build_decrypt_tables() -> tuple[tuple[int, ...], ...]:
    t0, t1, t2, t3 = [], [], [], []
    for x in range(256):
        s = _INV_SBOX[x]
        s9, s11, s13, s14 = _MUL9[s], _MUL11[s], _MUL13[s], _MUL14[s]
        t0.append((s14 << 24) | (s9 << 16) | (s13 << 8) | s11)
        t1.append((s11 << 24) | (s14 << 16) | (s9 << 8) | s13)
        t2.append((s13 << 24) | (s11 << 16) | (s14 << 8) | s9)
        t3.append((s9 << 24) | (s13 << 16) | (s11 << 8) | s14)
    return tuple(t0), tuple(t1), tuple(t2), tuple(t3)


_TE0, _TE1, _TE2, _TE3 = _build_encrypt_tables()
_TD0, _TD1, _TD2, _TD3 = _build_decrypt_tables()

_FOUR_WORDS = Struct(">IIII")

# Vectorized copies of the tables for the optional numpy bulk engine: the
# same T-table lookups, gathered across every block of a message (and
# every message of a batch) at once instead of one block at a time.
#
# The bulk kernel goes one step further than the scalar path and pairs
# adjacent state bytes into 16-bit indices: _NP_TE01[a << 8 | b] is
# TE0[a] ^ TE1[b] (and _NP_TE23 likewise for TE2/TE3), so a round costs
# two 65536-entry gathers per output word instead of four 256-entry ones.
# The pair indices come for free from a uint16 view of the mixed words
# (t_hi & 0xFF00FF00) | (t_lo & 0x00FF00FF) — no shifts or masks per
# lookup.  The view trick depends on host byte order, hence _NP_HI/_NP_LO.
if _np is not None:
    _NP_TE = tuple(_np.array(t, dtype=_np.uint32) for t in (_TE0, _TE1, _TE2, _TE3))
    _NP_SBOX = _np.array(list(_SBOX), dtype=_np.uint32)
    _NP_TE01 = (_NP_TE[0][:, None] ^ _NP_TE[1][None, :]).ravel()
    _NP_TE23 = (_NP_TE[2][:, None] ^ _NP_TE[3][None, :]).ravel()
    _NP_PAIR_IDX = _np.arange(65536, dtype=_np.uint32)
    _NP_SBOX_PAIR = (
        (_NP_SBOX[_NP_PAIR_IDX >> 8] << 8) | _NP_SBOX[_NP_PAIR_IDX & 0xFF]
    )
    _NP_MASK_HI = _np.uint32(0xFF00FF00)
    _NP_MASK_LO = _np.uint32(0x00FF00FF)
    #: which uint16 half of a native uint32 holds its high 16 bits
    _NP_HI = 1 if _np.little_endian else 0
    _NP_LO = 1 - _NP_HI
    #: row permutations of the stacked (4, lanes) state: row j's pair word
    #: mixes state rows (j, j+1), and its TE23 index comes from pair row
    #: j+2 (the ShiftRows geometry expressed on whole rows)
    _NP_ROLL1 = _np.array([1, 2, 3, 0])
    _NP_ROLL2 = _np.array([2, 3, 0, 1])

#: below this many blocks the numpy dispatch overhead beats its gains and
#: the scalar T-table loop wins
_NP_MIN_BLOCKS = 16

#: below this many lanes per call the stacked (4, lanes) round body wins;
#: above it the word-wise body's contiguous ops beat the stacked form's
#: row-permutation copies
_NP_STACK_MAX_LANES = 8192


def expand_key(key: bytes) -> list[bytes]:
    """Expand a 16-byte key into the 11 round keys of AES-128.

    Returns a list of 11 16-byte round keys.  Raises
    :class:`~repro.exceptions.InvalidKeyError` on a wrong-sized key.
    """
    return list(_schedule(key).round_keys)


def _expand_words(key: bytes) -> list[int]:
    """The 44 32-bit words of the AES-128 key schedule."""
    if len(key) != KEY_SIZE:
        raise InvalidKeyError(f"AES-128 key must be {KEY_SIZE} bytes, got {len(key)}")
    words = list(_FOUR_WORDS.unpack(key))
    sbox = _SBOX
    for round_index in range(_NUM_ROUNDS):
        prev = words[-1]
        # RotWord + SubWord + Rcon folded into word arithmetic.
        temp = (
            (sbox[(prev >> 16) & 0xFF] << 24)
            | (sbox[(prev >> 8) & 0xFF] << 16)
            | (sbox[prev & 0xFF] << 8)
            | sbox[prev >> 24]
        ) ^ (_RCON[round_index] << 24)
        for __ in range(4):
            temp ^= words[-4]
            words.append(temp)
            temp = words[-1]
    return words


def _inv_mix_columns_word(word: int) -> int:
    """Apply InvMixColumns to one column word (for the equivalent inverse
    cipher's transformed round keys)."""
    sbox = _SBOX
    return (
        _TD0[sbox[word >> 24]]
        ^ _TD1[sbox[(word >> 16) & 0xFF]]
        ^ _TD2[sbox[(word >> 8) & 0xFF]]
        ^ _TD3[sbox[word & 0xFF]]
    )


class _Schedule:
    """Fully expanded per-key material: encryption words, equivalent
    inverse-cipher decryption words, and the FIPS round-key bytes."""

    __slots__ = ("enc", "dec", "round_keys")

    def __init__(self, key: bytes) -> None:
        words = _expand_words(key)
        self.enc = tuple(words)
        # Equivalent inverse cipher: round keys in reverse round order,
        # with InvMixColumns applied to all but the first and last.
        dec: list[int] = []
        for round_index in range(_NUM_ROUNDS, -1, -1):
            chunk = words[4 * round_index : 4 * round_index + 4]
            if 0 < round_index < _NUM_ROUNDS:
                chunk = [_inv_mix_columns_word(w) for w in chunk]
            dec.extend(chunk)
        self.dec = tuple(dec)
        self.round_keys = [
            _FOUR_WORDS.pack(*words[4 * r : 4 * r + 4])
            for r in range(_NUM_ROUNDS + 1)
        ]


#: Process-wide key-schedule memo: the protocol layer builds ciphers for
#: the same handful of (sub)keys over and over; expanding each schedule
#: once removes that cost from the per-tuple path.  Bounded so adversarial
#: or fuzzing workloads with millions of distinct keys cannot grow it
#: without limit.
_SCHEDULE_CACHE: dict[bytes, _Schedule] = {}
_SCHEDULE_CACHE_MAX = 1024


def _schedule(key: bytes) -> _Schedule:
    key = bytes(key)
    schedule = _SCHEDULE_CACHE.get(key)
    if schedule is None:
        schedule = _Schedule(key)
        if len(_SCHEDULE_CACHE) >= _SCHEDULE_CACHE_MAX:
            _SCHEDULE_CACHE.clear()
        _SCHEDULE_CACHE[key] = schedule
    return schedule


def clear_schedule_cache() -> None:
    """Drop all memoized key schedules (key-rotation hygiene hook)."""
    _SCHEDULE_CACHE.clear()


def evict_schedule(key: bytes) -> None:
    """Forget the schedule of one key (called on key rotation)."""
    _SCHEDULE_CACHE.pop(bytes(key), None)


class AES128(CipherEngine):
    """AES-128 block cipher bound to a single key.

    >>> cipher = AES128(bytes(16))
    >>> block = cipher.encrypt_block(bytes(16))
    >>> cipher.decrypt_block(block) == bytes(16)
    True
    """

    __slots__ = ("_enc", "_dec", "_np_rk")

    def __init__(self, key: bytes) -> None:
        schedule = _schedule(key)
        self._enc = schedule.enc
        self._dec = schedule.dec
        self._np_rk = (
            _np.array(schedule.enc, dtype=_np.uint32) if _np is not None else None
        )

    # ------------------------------------------------------------------ #
    # core word-level transforms
    # ------------------------------------------------------------------ #
    def _encrypt_words(
        self, t0: int, t1: int, t2: int, t3: int
    ) -> tuple[int, int, int, int]:
        rk = self._enc
        te0, te1, te2, te3 = _TE0, _TE1, _TE2, _TE3
        t0 ^= rk[0]
        t1 ^= rk[1]
        t2 ^= rk[2]
        t3 ^= rk[3]
        i = 4
        for __ in range(_NUM_ROUNDS - 1):
            s0 = te0[t0 >> 24] ^ te1[(t1 >> 16) & 0xFF] ^ te2[(t2 >> 8) & 0xFF] ^ te3[t3 & 0xFF] ^ rk[i]
            s1 = te0[t1 >> 24] ^ te1[(t2 >> 16) & 0xFF] ^ te2[(t3 >> 8) & 0xFF] ^ te3[t0 & 0xFF] ^ rk[i + 1]
            s2 = te0[t2 >> 24] ^ te1[(t3 >> 16) & 0xFF] ^ te2[(t0 >> 8) & 0xFF] ^ te3[t1 & 0xFF] ^ rk[i + 2]
            s3 = te0[t3 >> 24] ^ te1[(t0 >> 16) & 0xFF] ^ te2[(t1 >> 8) & 0xFF] ^ te3[t2 & 0xFF] ^ rk[i + 3]
            t0, t1, t2, t3 = s0, s1, s2, s3
            i += 4
        sbox = _SBOX
        return (
            ((sbox[t0 >> 24] << 24) | (sbox[(t1 >> 16) & 0xFF] << 16)
             | (sbox[(t2 >> 8) & 0xFF] << 8) | sbox[t3 & 0xFF]) ^ rk[40],
            ((sbox[t1 >> 24] << 24) | (sbox[(t2 >> 16) & 0xFF] << 16)
             | (sbox[(t3 >> 8) & 0xFF] << 8) | sbox[t0 & 0xFF]) ^ rk[41],
            ((sbox[t2 >> 24] << 24) | (sbox[(t3 >> 16) & 0xFF] << 16)
             | (sbox[(t0 >> 8) & 0xFF] << 8) | sbox[t1 & 0xFF]) ^ rk[42],
            ((sbox[t3 >> 24] << 24) | (sbox[(t0 >> 16) & 0xFF] << 16)
             | (sbox[(t1 >> 8) & 0xFF] << 8) | sbox[t2 & 0xFF]) ^ rk[43],
        )

    def _decrypt_words(
        self, t0: int, t1: int, t2: int, t3: int
    ) -> tuple[int, int, int, int]:
        rk = self._dec
        td0, td1, td2, td3 = _TD0, _TD1, _TD2, _TD3
        t0 ^= rk[0]
        t1 ^= rk[1]
        t2 ^= rk[2]
        t3 ^= rk[3]
        i = 4
        for __ in range(_NUM_ROUNDS - 1):
            s0 = td0[t0 >> 24] ^ td1[(t3 >> 16) & 0xFF] ^ td2[(t2 >> 8) & 0xFF] ^ td3[t1 & 0xFF] ^ rk[i]
            s1 = td0[t1 >> 24] ^ td1[(t0 >> 16) & 0xFF] ^ td2[(t3 >> 8) & 0xFF] ^ td3[t2 & 0xFF] ^ rk[i + 1]
            s2 = td0[t2 >> 24] ^ td1[(t1 >> 16) & 0xFF] ^ td2[(t0 >> 8) & 0xFF] ^ td3[t3 & 0xFF] ^ rk[i + 2]
            s3 = td0[t3 >> 24] ^ td1[(t2 >> 16) & 0xFF] ^ td2[(t1 >> 8) & 0xFF] ^ td3[t0 & 0xFF] ^ rk[i + 3]
            t0, t1, t2, t3 = s0, s1, s2, s3
            i += 4
        inv = _INV_SBOX
        return (
            ((inv[t0 >> 24] << 24) | (inv[(t3 >> 16) & 0xFF] << 16)
             | (inv[(t2 >> 8) & 0xFF] << 8) | inv[t1 & 0xFF]) ^ rk[40],
            ((inv[t1 >> 24] << 24) | (inv[(t0 >> 16) & 0xFF] << 16)
             | (inv[(t3 >> 8) & 0xFF] << 8) | inv[t2 & 0xFF]) ^ rk[41],
            ((inv[t2 >> 24] << 24) | (inv[(t1 >> 16) & 0xFF] << 16)
             | (inv[(t0 >> 8) & 0xFF] << 8) | inv[t3 & 0xFF]) ^ rk[42],
            ((inv[t3 >> 24] << 24) | (inv[(t2 >> 16) & 0xFF] << 16)
             | (inv[(t1 >> 8) & 0xFF] << 8) | inv[t0 & 0xFF]) ^ rk[43],
        )

    # ------------------------------------------------------------------ #
    # public block interface
    # ------------------------------------------------------------------ #
    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        return _FOUR_WORDS.pack(*self._encrypt_words(*_FOUR_WORDS.unpack(block)))

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt exactly one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        return _FOUR_WORDS.pack(*self._decrypt_words(*_FOUR_WORDS.unpack(block)))

    # ------------------------------------------------------------------ #
    # bulk interface used by the chaining modes
    # ------------------------------------------------------------------ #
    def ctr_keystream(self, nonce: bytes, num_blocks: int) -> bytes:
        """The CTR keystream for counter blocks ``nonce || 0..num_blocks-1``.

        Generating the whole keystream in one call keeps the per-message
        Python overhead constant instead of per-block (*nonce* is 8 bytes;
        the block counter occupies the remaining 8)."""
        if len(nonce) != 8:
            raise ValueError(f"CTR nonce must be 8 bytes, got {len(nonce)}")
        if _np is not None and num_blocks >= _NP_MIN_BLOCKS:
            return self._keystreams([nonce], [num_blocks])
        n0, n1 = (
            int.from_bytes(nonce[:4], "big"),
            int.from_bytes(nonce[4:], "big"),
        )
        out = bytearray(num_blocks * BLOCK_SIZE)
        pack_into = _FOUR_WORDS.pack_into
        encrypt = self._encrypt_words
        for counter in range(num_blocks):
            pack_into(
                out,
                counter * BLOCK_SIZE,
                *encrypt(n0, n1, counter >> 32, counter & 0xFFFFFFFF),
            )
        return bytes(out)

    def _keystreams(
        self, nonces: Sequence[bytes], block_counts: Sequence[int]
    ) -> bytes:
        """Concatenated CTR keystreams for a batch of messages.

        One vectorized AES evaluation over the union of the batch's
        counter blocks; the per-message streams come back as one flat
        buffer (message *i* occupies ``block_counts[i] * 16`` bytes
        starting where message *i - 1* ended) — the shape the packed
        block APIs consume, with no per-message slicing."""
        if len(nonces) != len(block_counts):
            raise ValueError("one nonce per block count required")
        for nonce in nonces:
            if len(nonce) != 8:
                raise ValueError(f"CTR nonce must be 8 bytes, got {len(nonce)}")
        total_blocks = sum(block_counts)
        if _np is None or total_blocks < _NP_MIN_BLOCKS:
            return b"".join(
                self.ctr_keystream(nonce, count)
                for nonce, count in zip(nonces, block_counts)
            )
        counts = _np.array(block_counts, dtype=_np.int64)
        nonce_words = _np.frombuffer(b"".join(nonces), dtype=">u4").astype(
            _np.uint32
        )
        t0 = _np.repeat(nonce_words[0::2], counts)
        t1 = _np.repeat(nonce_words[1::2], counts)
        # per-message block counters 0..count-1, concatenated
        offsets = _np.repeat(
            _np.cumsum(counts) - counts, counts
        )
        t3 = (_np.arange(total_blocks, dtype=_np.int64) - offsets).astype(
            _np.uint32
        )
        t2 = _np.zeros(total_blocks, dtype=_np.uint32)
        s0, s1, s2, s3 = self._np_encrypt_words(t0, t1, t2, t3)
        out = _np.empty((total_blocks, 4), dtype=_np.uint32)
        out[:, 0] = s0
        out[:, 1] = s1
        out[:, 2] = s2
        out[:, 3] = s3
        if _np.little_endian:  # keystream bytes are big-endian words
            out.byteswap(inplace=True)
        return out.tobytes()

    def ctr_transform_many(
        self, nonces: Sequence[bytes], messages: Sequence[bytes]
    ) -> list[bytes]:
        """CTR-transform a whole batch of messages in one pass.

        All messages share one vectorized AES evaluation over the union of
        their counter blocks — the engine behind ``encrypt_many`` /
        ``decrypt_many`` on the protocol ciphers."""
        if len(nonces) != len(messages):
            raise ValueError("one nonce per message required")
        counts = [blocks_in(len(message)) for message in messages]
        flat = self._keystreams(nonces, counts)
        out = []
        cursor = 0
        for message, count in zip(messages, counts):
            end = cursor + count * BLOCK_SIZE
            out.append(xor_bytes(message, flat[cursor:end]))
            cursor = end
        return out

    def ctr_transform_packed(
        self, nonces: Sequence[bytes], view: memoryview, offsets: Sequence[int]
    ) -> bytes:
        """One packed keystream pass, one packed XOR."""
        counts = [
            blocks_in(offsets[i + 1] - offsets[i])
            for i in range(len(offsets) - 1)
        ]
        return xor_packed(view, offsets, self._keystreams(nonces, counts))

    def cbc_mac_many(self, messages: Sequence[bytes]) -> list[bytes]:
        """CBC-MAC cores of a batch of block-aligned messages, computed in
        lockstep: step *b* encrypts block *b* of every still-unfinished
        message in one vectorized AES evaluation.  Ragged batches are fine
        (each lane's MAC is captured at its own final block)."""
        for message in messages:
            if len(message) % BLOCK_SIZE:
                raise ValueError("CBC-MAC core needs block-aligned messages")
        counts = [len(message) // BLOCK_SIZE for message in messages]
        if _np is None or len(messages) < 2 or sum(counts) < _NP_MIN_BLOCKS:
            return [self.cbc_mac_words(message) for message in messages]
        lanes = len(messages)
        max_blocks = max(counts)
        uniform = min(counts) == max_blocks
        if uniform:
            # Equal-length batch (the packed block APIs): one frombuffer
            # over the joined messages, and no per-step done-lane scan.
            words = (
                _np.frombuffer(b"".join(messages), dtype=">u4")
                .astype(_np.uint32)
                .reshape(lanes, 4 * max_blocks)
            )
        else:
            words = _np.zeros((lanes, 4 * max_blocks), dtype=_np.uint32)
            for lane, message in enumerate(messages):
                w = _np.frombuffer(message, dtype=">u4").astype(_np.uint32)
                words[lane, : w.size] = w
        t0 = _np.zeros(lanes, dtype=_np.uint32)
        t1 = t0.copy()
        t2 = t0.copy()
        t3 = t0.copy()
        macs: list[bytes | None] = [None] * lanes
        for block_index in range(max_blocks):
            base = 4 * block_index
            t0, t1, t2, t3 = self._np_encrypt_words(
                t0 ^ words[:, base],
                t1 ^ words[:, base + 1],
                t2 ^ words[:, base + 2],
                t3 ^ words[:, base + 3],
            )
            if uniform:
                continue
            done = [
                lane for lane, count in enumerate(counts)
                if count == block_index + 1
            ]
            if done:
                packed = _np.stack(
                    (t0[done], t1[done], t2[done], t3[done]), axis=1
                ).astype(">u4").tobytes()
                for i, lane in enumerate(done):
                    macs[lane] = packed[16 * i : 16 * i + 16]
        if uniform:
            out = _np.empty((lanes, 4), dtype=_np.uint32)
            out[:, 0] = t0
            out[:, 1] = t1
            out[:, 2] = t2
            out[:, 3] = t3
            if _np.little_endian:
                out.byteswap(inplace=True)
            flat = out.tobytes()
            return [flat[16 * i : 16 * i + 16] for i in range(lanes)]
        # every non-empty lane captured exactly once; an empty message's
        # MAC core is the zero IV itself
        return [mac if mac is not None else bytes(BLOCK_SIZE) for mac in macs]

    def _np_encrypt_words(self, t0: Any, t1: Any, t2: Any, t3: Any) -> Any:
        """Vectorized :meth:`_encrypt_words` over arrays of column words.

        Two bodies, same math: below ``_NP_STACK_MAX_LANES`` the four
        state words are stacked into one (4, lanes) array so each round
        costs ~8 numpy dispatches instead of ~30 — this is the CBC-MAC
        lockstep regime, where 66 sequential steps over a few hundred
        lanes are dominated by per-op dispatch overhead, not gathers.
        Large batches (the one-shot CTR keystream of a whole block) stay
        on the word-wise body, which is faster once arrays are big enough
        that the fancy row indexing of the stacked form costs real
        memory traffic."""
        if t0.shape[0] < _NP_STACK_MAX_LANES:
            return self._np_encrypt_words_stacked(t0, t1, t2, t3)
        return self._np_encrypt_words_wide(t0, t1, t2, t3)

    def _np_encrypt_words_stacked(
        self, t0: Any, t1: Any, t2: Any, t3: Any
    ) -> Any:
        """The dispatch-lean body: one (4, lanes) state array per round."""
        rk = self._np_rk
        te01, te23 = _NP_TE01, _NP_TE23
        mask_hi, mask_lo = _NP_MASK_HI, _NP_MASK_LO
        hi, lo = _NP_HI, _NP_LO
        roll1, roll2 = _NP_ROLL1, _NP_ROLL2
        n = t0.shape[0]
        t = _np.empty((4, n), dtype=_np.uint32)
        t[0] = t0 ^ rk[0]
        t[1] = t1 ^ rk[1]
        t[2] = t2 ^ rk[2]
        t[3] = t3 ^ rk[3]
        i = 4
        for __ in range(_NUM_ROUNDS - 1):
            pairs = t & mask_hi
            pairs |= t[roll1] & mask_lo
            halves = pairs.view(_np.uint16).reshape(4, n, 2)
            t = te01[halves[:, :, hi]]
            t ^= te23[halves[roll2][:, :, lo]]
            t ^= rk[i : i + 4, None]
            i += 4
        sp = _NP_SBOX_PAIR
        pairs = t & mask_hi
        pairs |= t[roll1] & mask_lo
        halves = pairs.view(_np.uint16).reshape(4, n, 2)
        s = sp[halves[:, :, hi]] << 16
        s |= sp[halves[roll2][:, :, lo]]
        s ^= rk[40:44, None]
        return s[0], s[1], s[2], s[3]

    def _np_encrypt_words_wide(
        self, t0: Any, t1: Any, t2: Any, t3: Any
    ) -> Any:
        """The gather-lean body, word by word.

        Uses the paired 16-bit T-tables: each round mixes the state into
        four pair-index arrays whose uint16 halves address _NP_TE01 /
        _NP_TE23 directly.  The word ``(t_hi & 0xFF00FF00) |
        (t_lo & 0x00FF00FF)`` carries exactly the two byte pairs
        (t_hi.b3, t_lo.b2) and (t_hi.b1, t_lo.b0) that the round function
        consumes, one in each 16-bit half."""
        rk = self._np_rk
        te01, te23 = _NP_TE01, _NP_TE23
        mask_hi, mask_lo = _NP_MASK_HI, _NP_MASK_LO
        hi, lo = _NP_HI, _NP_LO
        u16 = _np.uint16
        t0 = (t0 ^ rk[0]).astype(_np.uint32, copy=False)
        t1 = (t1 ^ rk[1]).astype(_np.uint32, copy=False)
        t2 = (t2 ^ rk[2]).astype(_np.uint32, copy=False)
        t3 = (t3 ^ rk[3]).astype(_np.uint32, copy=False)
        i = 4
        for __ in range(_NUM_ROUNDS - 1):
            pa = ((t0 & mask_hi) | (t1 & mask_lo)).view(u16).reshape(-1, 2)
            pb = ((t1 & mask_hi) | (t2 & mask_lo)).view(u16).reshape(-1, 2)
            pc = ((t2 & mask_hi) | (t3 & mask_lo)).view(u16).reshape(-1, 2)
            pd = ((t3 & mask_hi) | (t0 & mask_lo)).view(u16).reshape(-1, 2)
            t0 = te01[pa[:, hi]]
            t0 ^= te23[pc[:, lo]]
            t0 ^= rk[i]
            t1 = te01[pb[:, hi]]
            t1 ^= te23[pd[:, lo]]
            t1 ^= rk[i + 1]
            t2 = te01[pc[:, hi]]
            t2 ^= te23[pa[:, lo]]
            t2 ^= rk[i + 2]
            t3 = te01[pd[:, hi]]
            t3 ^= te23[pb[:, lo]]
            t3 ^= rk[i + 3]
            i += 4
        sp = _NP_SBOX_PAIR
        pa = ((t0 & mask_hi) | (t1 & mask_lo)).view(u16).reshape(-1, 2)
        pb = ((t1 & mask_hi) | (t2 & mask_lo)).view(u16).reshape(-1, 2)
        pc = ((t2 & mask_hi) | (t3 & mask_lo)).view(u16).reshape(-1, 2)
        pd = ((t3 & mask_hi) | (t0 & mask_lo)).view(u16).reshape(-1, 2)
        s0 = sp[pa[:, hi]] << 16
        s0 |= sp[pc[:, lo]]
        s0 ^= rk[40]
        s1 = sp[pb[:, hi]] << 16
        s1 |= sp[pd[:, lo]]
        s1 ^= rk[41]
        s2 = sp[pc[:, hi]] << 16
        s2 |= sp[pa[:, lo]]
        s2 ^= rk[42]
        s3 = sp[pd[:, hi]] << 16
        s3 |= sp[pb[:, lo]]
        s3 ^= rk[43]
        return s0, s1, s2, s3

    def cbc_mac_words(self, message: bytes) -> bytes:
        """CBC-MAC core over a block-aligned *message* (zero IV)."""
        if len(message) % BLOCK_SIZE:
            raise ValueError("CBC-MAC core needs a block-aligned message")
        unpack_from = _FOUR_WORDS.unpack_from
        encrypt = self._encrypt_words
        m0 = m1 = m2 = m3 = 0
        for offset in range(0, len(message), BLOCK_SIZE):
            b0, b1, b2, b3 = unpack_from(message, offset)
            m0, m1, m2, m3 = encrypt(m0 ^ b0, m1 ^ b1, m2 ^ b2, m3 ^ b3)
        return _FOUR_WORDS.pack(m0, m1, m2, m3)
