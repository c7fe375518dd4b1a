"""Optional OpenSSL-backed AES-128 engine (via the ``cryptography`` wheel).

The paper's TDS offloads AES to a crypto-coprocessor; on a development
machine the closest analogue is the host's AES-NI path, reached through
``cryptography``'s OpenSSL bindings.  This module is an *engine* in the
sense of :class:`repro.crypto.aes.CipherEngine`, so the chaining modes
and the protocol ciphers above them are byte-for-byte oblivious to which
engine is underneath.

The AES here is native, so a call should cost its AES and not its set-up:
the engine keeps **persistent EVP contexts**, and a batch costs either a
fixed number of native calls (the lockstep) or one per message (the loop).

* CTR: our mode is ``nonce(8) || counter(8)`` starting at zero, which
  coincides with OpenSSL's 128-bit big-endian CTR over the initial block
  ``nonce || 0`` for any message shorter than 2**67 bytes — one
  ``reset_nonce`` and one ``update`` straight over the data.
* CBC-MAC: one long-lived CBC encryptor.  CBC encrypts block *b* as
  ``E(b ^ chain)`` where ``chain`` is the previous ciphertext block, so
  after a message the context carries that message's tag.  XOR-ing the
  carried value into the first block of the next message cancels it
  (``E(b ^ chain ^ chain) = E(b ^ 0)``): the zero-IV MAC, byte for byte,
  with no context built per call.

**Lockstep.**  A native call is ~0.05 µs of AES on a 256-byte tuple and
~2 µs of interpreter around it, so a batch of equal-length messages runs
on one ECB encryptor instead, its lanes side by side in numpy: CTR is one
ECB pass over every counter block of the batch and one XOR; CBC-MAC
is one ECB ``update_into`` per block index, ``state = E(state ^ block_j)``
across all lanes (the T-table engine's lockstep, with the AES native).
The rule is a property of the batch alone: its messages share one length
of at most ``_MAX_LANE_BYTES``, and a pass has more lanes than
``_SETUP_LANES`` plus its ECB steps (1 for CTR, the block count for
CBC-MAC) — see :func:`_lockstep_lanes`.  Small or ragged batches, and
every batch without numpy, loop.

Contexts are **per thread** (``MultiQueryRunner`` decrypts results on
``asyncio.to_thread`` while the loop thread's fleet uses the same cached
engine) and a context whose call raised is **discarded**, never reused —
its chaining state is unknown.  ``reset_nonce`` needs ``cryptography``
>= 43; :func:`repro.crypto.cache.use_engine` probes :func:`usable` and
falls through to the T-table engine without it, as it does when this
module fails to import.  Correctness is pinned by the parity fuzz in
``tests/crypto/test_block_api.py`` and ``tests/crypto/test_openssl_engine.py``
against :mod:`repro.crypto.reference`.
"""

from __future__ import annotations

import threading
from typing import Any, Sequence

from cryptography.hazmat.primitives.ciphers import Cipher, CipherContext, algorithms
from cryptography.hazmat.primitives.ciphers import modes as _ossl_modes

from repro.crypto.aes import (
    BLOCK_SIZE,
    KEY_SIZE,
    CipherEngine,
    _check_aligned,
    blocks_in,
)
from repro.exceptions import InvalidKeyError

try:  # optional: lockstep batches; without numpy every batch loops
    import numpy as _np
except ImportError:  # pragma: no cover - environment without numpy
    _np = None

#: the first ``cryptography`` release whose CTR contexts have ``reset_nonce``
MIN_CRYPTOGRAPHY = "43"

_ZERO_IV = bytes(BLOCK_SIZE)
_ZERO_COUNTER = bytes(8)

#: the lockstep's fixed cost (building its arrays, joining and splitting
#: the batch) in messages' worth of the loop: a pass runs in lockstep when
#: it has more lanes than this plus its ECB steps.  Measured crossovers,
#: interleaved best-of runs on a 2-core x86-64 host: CTR over 256 B loses
#: at 12 lanes and wins from 16; a 2-block CBC-MAC wins from 8-10 lanes,
#: an 18-block one loses at 16 and wins from 20-24
_SETUP_LANES = 12

#: the longest message the lockstep takes: past it the loop's per-message
#: overhead is small next to the message's bytes, while the lockstep's
#: numpy passes grow with them (250 x 1 KiB CTR: lockstep 0.63 vs loop
#: 1.20 µs per message; 250 x 2 KiB: 1.53 vs 1.33)
_MAX_LANE_BYTES = 1024

#: the most padded message bytes one lockstep pass takes, so that a big
#: batch does not page fresh memory in for every buffer of the pass
#: (4000 x 256 B CTR: 0.44 µs per message in 96 KiB passes, 1.11 in one)
_PASS_BYTES = 96 * 1024


def usable() -> bool:
    """True when the installed ``cryptography`` has ``reset_nonce``."""
    context = Cipher(algorithms.AES(_ZERO_IV), _ossl_modes.CTR(_ZERO_IV)).encryptor()
    return hasattr(context, "reset_nonce")


class OpenSSLAES128(CipherEngine):
    """AES-128 engine delegating whole messages to OpenSSL.

    Drop-in engine-level replacement for
    :class:`repro.crypto.aes.AES128`: same constructor contract, same
    surface, identical bytes out.
    """

    __slots__ = ("_cipher", "_local")

    def __init__(self, key: bytes) -> None:
        key = bytes(key)
        if len(key) != KEY_SIZE:
            raise InvalidKeyError(
                f"AES-128 key must be {KEY_SIZE} bytes, got {len(key)}"
            )
        self._cipher = algorithms.AES(key)
        #: this thread's contexts: ``ctr``, ``cbc`` with its ``chain``, ``ecb``
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    # public block interface
    # ------------------------------------------------------------------ #
    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        return Cipher(self._cipher, _ossl_modes.ECB()).encryptor().update(block)

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt exactly one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        return Cipher(self._cipher, _ossl_modes.ECB()).decryptor().update(block)

    # ------------------------------------------------------------------ #
    # batch primitives: lockstep passes, or one native call per message
    # ------------------------------------------------------------------ #
    def ctr_many(
        self,
        nonces: Sequence[bytes | memoryview],
        messages: Sequence[bytes | memoryview],
    ) -> list[bytes]:
        """CTR-transform each message: a lockstep batch in one ECB pass
        per ``_PASS_BYTES``, any other by one ``reset_nonce`` and one
        ``update`` per message on this thread's CTR context."""
        lanes = len(messages) > _SETUP_LANES and _lockstep_lanes(messages, mac=False)
        if lanes:
            out: list[bytes] = []
            for start in range(0, len(messages), lanes):
                out += self._ctr_lockstep(
                    nonces[start : start + lanes], messages[start : start + lanes]
                )
            return out
        local = self._local
        try:
            context = local.ctr
        except AttributeError:
            context = local.ctr = Cipher(
                self._cipher, _ossl_modes.CTR(_ZERO_IV)
            ).encryptor()
        reset, update = context.reset_nonce, context.update
        out = []
        try:
            for nonce, message in zip(nonces, messages):
                reset(b"".join((nonce, _ZERO_COUNTER)))
                out.append(update(message))
        except BaseException:
            del local.ctr
            raise
        return out

    def cbc_mac_many(self, messages: Sequence[bytes]) -> list[bytes]:
        """CBC-MAC cores (zero IV) of block-aligned messages: a lockstep
        batch in one ECB pass per block index, any other on this thread's
        CBC context, cancelling the carried chain per message."""
        _check_aligned(messages)
        lanes = len(messages) > _SETUP_LANES and _lockstep_lanes(messages, mac=True)
        if lanes:
            tags: list[bytes] = []
            for start in range(0, len(messages), lanes):
                tags += self._cbc_mac_lockstep(messages[start : start + lanes])
            return tags
        local = self._local
        try:
            context = local.cbc
        except AttributeError:
            context = local.cbc = Cipher(
                self._cipher, _ossl_modes.CBC(_ZERO_IV)
            ).encryptor()
            local.chain = 0
        chain = local.chain
        tags = []
        try:
            for message in messages:
                if not message:
                    tags.append(_ZERO_IV)
                    continue
                first = int.from_bytes(message[:BLOCK_SIZE], "big") ^ chain
                tag = context.update(
                    first.to_bytes(BLOCK_SIZE, "big") + message[BLOCK_SIZE:]
                )[-BLOCK_SIZE:]
                chain = int.from_bytes(tag, "big")
                tags.append(tag)
        except BaseException:
            del local.cbc
            raise
        local.chain = chain
        return tags

    # ------------------------------------------------------------------ #
    # one lockstep pass over equal-length messages
    # ------------------------------------------------------------------ #
    def _ecb(self) -> CipherContext:
        """This thread's ECB encryptor.  It is only ever handed whole
        blocks, so it carries nothing from one call to the next."""
        local = self._local
        try:
            return local.ecb
        except AttributeError:
            local.ecb = Cipher(self._cipher, _ossl_modes.ECB()).encryptor()
            return local.ecb

    def _ctr_lockstep(
        self,
        nonces: Sequence[bytes | memoryview],
        messages: Sequence[bytes | memoryview],
    ) -> list[bytes]:
        """The counter blocks ``nonce || i`` of every message through one
        ECB ``update_into``, XOR-ed with the joined messages in one go."""
        lanes, size = len(messages), len(messages[0])
        blocks = blocks_in(size)
        if not blocks:
            return [b""] * lanes
        # a counter block as two 64-bit words: the nonce's bytes as they
        # come, then the big-endian block index
        counters = _np.empty((lanes, blocks, 2), dtype=_np.uint64)
        counters[:, :, 0] = _np.frombuffer(
            b"".join(nonces), dtype=_np.uint64
        ).reshape(lanes, 1)
        counters[:, :, 1] = _np.arange(blocks, dtype=">u8").view(_np.uint64)
        width = lanes * blocks * BLOCK_SIZE
        # update_into wants room for one block more than it writes
        stream = bytearray(width + BLOCK_SIZE - 1)
        ecb = self._ecb()
        try:
            ecb.update_into(counters.view(_np.uint8), stream)
        except BaseException:
            del self._local.ecb
            raise
        unit = _np.uint64 if size % 8 == 0 else _np.uint8
        keystream = _np.frombuffer(
            stream, dtype=unit, count=width // _np.dtype(unit).itemsize
        ).reshape(lanes, -1)
        bodies = _np.frombuffer(b"".join(messages), dtype=unit).reshape(lanes, -1)
        return _rows(bodies ^ keystream[:, : bodies.shape[1]], size)

    def _cbc_mac_lockstep(self, messages: Sequence[bytes]) -> list[bytes]:
        """Block *j* of every lane in one ECB ``update_into``:
        ``state = E(state ^ block_j)``, the lanes transposed once."""
        lanes, blocks = len(messages), len(messages[0]) // BLOCK_SIZE
        if not blocks:
            return [_ZERO_IV] * lanes
        # transposed as whole 16-byte blocks: column j is block j of every lane
        columns = (
            _np.frombuffer(b"".join(messages), dtype=(_np.void, BLOCK_SIZE))
            .reshape(lanes, blocks)
            .T.copy()
            .view(_np.uint8)
            .reshape(blocks, lanes, BLOCK_SIZE)
        )
        width = lanes * BLOCK_SIZE
        out = bytearray(width + BLOCK_SIZE - 1)
        state = _np.frombuffer(out, dtype=_np.uint8, count=width).reshape(
            lanes, BLOCK_SIZE
        )
        mixed = _np.empty((lanes, BLOCK_SIZE), dtype=_np.uint8)
        into = self._ecb().update_into
        try:
            into(columns[0], out)  # the zero IV: E(0 ^ block_0)
            for column in columns[1:]:
                _np.bitwise_xor(state, column, out=mixed)
                into(mixed, out)
        except BaseException:
            del self._local.ecb
            raise
        return _rows(state, BLOCK_SIZE)


def _rows(array: Any, size: int) -> list[bytes]:
    """Each *size*-byte row of a C-contiguous array as its own ``bytes``
    (one C-level pass, ~5x cheaper than slicing a joined copy)."""
    return array.view(_np.dtype((_np.void, size))).ravel().tolist()


def _lockstep_lanes(messages: Sequence[bytes | memoryview], *, mac: bool) -> int:
    """Lanes per lockstep pass for *messages*, or 0 when the batch loops.

    A batch runs in lockstep when its messages share one length of at
    most ``_MAX_LANE_BYTES`` and each pass has more lanes than
    ``_SETUP_LANES`` plus the pass's ECB steps (CTR: 1; CBC-MAC: one per
    block).  A batch over ``_PASS_BYTES`` is cut into passes of equal
    lane counts.  Without numpy it is always 0.
    """
    if _np is None:
        return 0
    size = len(messages[0])
    if size > _MAX_LANE_BYTES:
        return 0
    for message in messages:
        if len(message) != size:
            return 0
    blocks = blocks_in(size)
    count = len(messages)
    passes = max(1, -(-count * blocks * BLOCK_SIZE // _PASS_BYTES))
    lanes = -(-count // passes)
    steps = blocks if mac else 1
    return lanes if lanes > _SETUP_LANES + steps else 0
