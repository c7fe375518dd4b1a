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
~2 µs of interpreter around it, so equal-length messages run as one
``(lanes, size)`` numpy array on one ECB encryptor (:meth:`_ctr_lockstep`,
:meth:`_cbc_mac_lockstep`): arrays past :meth:`_lockstep`, lists past
:func:`_lockstep_lanes`.  Small or ragged batches, and all without numpy, loop.

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
    _np,
    blocks_in,
)
from repro.crypto.modes import _lanes
from repro.exceptions import InvalidKeyError

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

#: the array seal's and open's fixed cost in messages' worth of the loop:
#: they take a uniform batch with more lanes than this plus a quarter of
#: a message's blocks.  Measured crossovers of seal + open, interleaved
#: best-of runs on a 2-core x86-64 host: 48 B from 8 lanes, 256 B from 12,
#: 1 KiB from 24
_ARRAY_SETUP = 6

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
        if len(messages) > _SETUP_LANES and _lockstep_lanes(messages, mac=False):
            data = _lanes(bytearray(b"".join(messages)), len(messages), len(messages[0]))
            self._ctr_lockstep(_lanes(b"".join(nonces), len(nonces), 8), data, data)
            return _rows(data)
        local = self._local
        try:
            context = local.ctr
        except AttributeError:
            context = local.ctr = Cipher(
                self._cipher, _ossl_modes.CTR(_ZERO_IV)
            ).encryptor()
        reset, update = context.reset_nonce, context.update
        out: list[bytes] = []
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
        if len(messages) > _SETUP_LANES and _lockstep_lanes(messages, mac=True):
            framed = _lanes(b"".join(messages), len(messages), len(messages[0]))
            return _rows(self._cbc_mac_lockstep(framed))
        local = self._local
        try:
            context = local.cbc
        except AttributeError:
            context = local.cbc = Cipher(
                self._cipher, _ossl_modes.CBC(_ZERO_IV)
            ).encryptor()
            local.chain = 0
        chain = local.chain
        tags: list[bytes] = []
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
    # the lockstep: a (lanes, size) uint8 array, one ECB pass per step
    # ------------------------------------------------------------------ #
    def _lockstep(self, lanes: int, size: int) -> bool:
        """Past ``_ARRAY_SETUP``, up to ``_MAX_LANE_BYTES``, with numpy."""
        if _np is None or not 0 < size <= _MAX_LANE_BYTES:
            return False
        return lanes > _ARRAY_SETUP + blocks_in(size) // 4

    def _ecb(self) -> CipherContext:
        """This thread's ECB encryptor.  It is only ever handed whole
        blocks, so it carries nothing from one call to the next."""
        local = self._local
        try:
            return local.ecb
        except AttributeError:
            local.ecb = Cipher(self._cipher, _ossl_modes.ECB()).encryptor()
            return local.ecb

    def _ctr_lockstep(self, nonces: Any, data: Any, out: Any) -> None:
        """CTR-transform each row of *data* under the 8-byte row of
        *nonces* into *out*: per ``_PASS_BYTES``, the counter blocks
        ``nonce || i`` of every lane through one ECB ``update_into``,
        XOR-ed with the data in one go."""
        lanes, size = data.shape
        blocks = blocks_in(size)
        # a counter block as two 64-bit words: the nonce's bytes as they
        # come, then the big-endian block index
        index = _np.arange(blocks, dtype=">u8").view(_np.uint64)
        unit = _np.uint64 if size % 8 == 0 else _np.uint8
        step = _pass_lanes(lanes, size)
        for start in range(0, lanes if blocks else 0, step):
            part = nonces[start : start + step].view(_np.uint64)
            counters = _np.empty((len(part), blocks, 2), dtype=_np.uint64)
            counters[:, :, 0] = part
            counters[:, :, 1] = index
            # update_into wants room for one block more than it writes
            stream = _np.empty(counters.nbytes + BLOCK_SIZE - 1, dtype=_np.uint8)
            try:
                self._ecb().update_into(counters.view(_np.uint8), stream)
            except BaseException:
                del self._local.ecb
                raise
            keystream = stream[: counters.nbytes].reshape(len(part), -1)[:, :size]
            _np.bitwise_xor(
                data[start : start + step].view(unit),
                keystream.view(unit),
                out=out[start : start + step].view(unit),
            )

    def _cbc_mac_lockstep(self, framed: Any) -> Any:
        """CBC-MAC cores (zero IV) of the block-aligned rows of *framed*:
        block *j* of every lane of a pass in one ECB ``update_into``."""
        lanes, size = framed.shape
        tags = _np.zeros((lanes, BLOCK_SIZE), dtype=_np.uint8)
        step = _pass_lanes(lanes, size)
        for start in range(0, lanes if size else 0, step):
            # transposed as whole 16-byte blocks, then read as 64-bit
            # words: row j is block j of every lane of the pass
            part = framed[start : start + step].view((_np.void, BLOCK_SIZE))
            columns = part.T.copy().view(_np.uint64)
            width = len(part) * BLOCK_SIZE
            out = _np.empty(width + BLOCK_SIZE - 1, dtype=_np.uint8)
            state = out[:width].view(_np.uint64)
            mixed = columns[0]  # the zero IV: E(0 ^ block_0)
            raw = mixed.view(_np.uint8)  # what the native call reads
            into = self._ecb().update_into
            try:
                into(raw, out)
                for column in columns[1:]:
                    _np.bitwise_xor(state, column, out=mixed)
                    into(raw, out)
            except BaseException:
                del self._local.ecb
                raise
            tags[start : start + step] = out[:width].reshape(-1, BLOCK_SIZE)
        return tags


def _rows(array: Any) -> list[bytes]:
    """Each row of a C-contiguous ``(lanes, size)`` uint8 array as ``bytes``."""
    lanes, size = array.shape
    if not size:
        return [b""] * lanes
    return array.view(_np.dtype((_np.void, size))).ravel().tolist()


def _pass_lanes(count: int, size: int) -> int:
    """Lanes per lockstep pass over *count* messages of *size* bytes: a
    batch over ``_PASS_BYTES`` is cut into passes of equal lane counts."""
    passes = max(1, -(-count * blocks_in(size) * BLOCK_SIZE // _PASS_BYTES))
    return max(1, -(-count // passes))


def _lockstep_lanes(messages: Sequence[bytes | memoryview], *, mac: bool) -> int:
    """Lanes per lockstep pass for *messages*, or 0 when the batch loops:
    it runs in lockstep when its messages share one length of at most
    ``_MAX_LANE_BYTES`` and a pass has more lanes than ``_SETUP_LANES`` plus
    its ECB steps (CTR: 1; CBC-MAC: one per block), never without numpy."""
    size = len(messages[0])
    if _np is None or size > _MAX_LANE_BYTES:
        return 0
    if any(len(message) != size for message in messages):
        return 0
    steps = blocks_in(size) if mac else 1
    lanes = _pass_lanes(len(messages), size)
    return lanes if lanes > _SETUP_LANES + steps else 0
