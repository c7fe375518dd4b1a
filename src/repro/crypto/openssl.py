"""Optional OpenSSL-backed AES-128 engine (via the ``cryptography`` wheel).

The paper's TDS offloads AES to a crypto-coprocessor; on a development
machine the closest analogue is the host's AES-NI path, reached through
``cryptography``'s OpenSSL bindings.  This module is an *engine* in the
sense of :mod:`repro.crypto.modes`: it exposes the same duck-typed
surface as :class:`repro.crypto.aes.AES128` (``encrypt_block`` /
``decrypt_block`` plus the bulk ``ctr_keystream*`` / ``cbc_mac*``
methods), so the chaining modes and the protocol ciphers above them are
byte-for-byte oblivious to which engine is underneath.

Importing this module raises :class:`ImportError` when ``cryptography``
is not installed; :func:`repro.crypto.cache.use_engine` treats that as
"fall through to the T-table engine".  Correctness is pinned by the
parity fuzz in ``tests/crypto/test_block_api.py`` against
:mod:`repro.crypto.reference`.

Construction detail: our CTR mode is ``nonce(8) || counter(8)`` starting
at zero, which coincides with OpenSSL's 128-bit big-endian CTR over the
initial block ``nonce || 0`` for any message shorter than 2**67 bytes,
so :meth:`ctr_keystream` is a single EVP call.  CBC-MAC is the last
block of a zero-IV CBC encryption.
"""

from __future__ import annotations

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms
from cryptography.hazmat.primitives.ciphers import modes as _ossl_modes

from repro.exceptions import InvalidKeyError

BLOCK_SIZE = 16
KEY_SIZE = 16

try:  # batch counter-block construction (the ECB fallback) is numpy-only
    import numpy as _np
except ImportError:  # pragma: no cover - environment without numpy
    _np = None  # type: ignore[assignment]

_ZERO_IV = bytes(BLOCK_SIZE)


class OpenSSLAES128:
    """AES-128 engine delegating the block transform to OpenSSL.

    Drop-in engine-level replacement for
    :class:`repro.crypto.aes.AES128`: same constructor contract, same
    bulk surface, identical bytes out.
    """

    __slots__ = ("_key", "_ecb")

    def __init__(self, key: bytes) -> None:
        key = bytes(key)
        if len(key) != KEY_SIZE:
            raise InvalidKeyError(
                f"AES-128 key must be {KEY_SIZE} bytes, got {len(key)}"
            )
        self._key = key
        self._ecb = Cipher(algorithms.AES(key), _ossl_modes.ECB())

    # ------------------------------------------------------------------ #
    # public block interface
    # ------------------------------------------------------------------ #
    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        enc = self._ecb.encryptor()
        return enc.update(block) + enc.finalize()

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt exactly one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        dec = self._ecb.decryptor()
        return dec.update(block) + dec.finalize()

    # ------------------------------------------------------------------ #
    # bulk interface used by the chaining modes
    # ------------------------------------------------------------------ #
    def ctr_keystream(self, nonce: bytes, num_blocks: int) -> bytes:
        """The CTR keystream for counter blocks ``nonce || 0..num_blocks-1``."""
        if len(nonce) != 8:
            raise ValueError(f"CTR nonce must be 8 bytes, got {len(nonce)}")
        if num_blocks <= 0:
            return b""
        enc = Cipher(
            algorithms.AES(self._key), _ossl_modes.CTR(nonce + bytes(8))
        ).encryptor()
        return enc.update(bytes(num_blocks * BLOCK_SIZE)) + enc.finalize()

    def ctr_keystream_packed(
        self, nonces: list[bytes], block_counts: list[int]
    ) -> bytes:
        """Concatenated CTR keystreams for a batch of messages.

        When numpy is available the counter blocks of the whole batch are
        materialized in one pass and pushed through a single ECB call
        (ECB of the counter blocks *is* the CTR keystream), so the
        per-message EVP setup cost disappears."""
        if len(nonces) != len(block_counts):
            raise ValueError("one nonce per block count required")
        for nonce in nonces:
            if len(nonce) != 8:
                raise ValueError(f"CTR nonce must be 8 bytes, got {len(nonce)}")
        if _np is None:
            return b"".join(
                self.ctr_keystream(nonce, count)
                for nonce, count in zip(nonces, block_counts)
            )
        counts = _np.array(block_counts, dtype=_np.int64)
        total_blocks = int(counts.sum())
        if total_blocks == 0:
            return b""
        blocks = _np.empty((total_blocks, 2), dtype=_np.uint64)
        nonce_words = _np.frombuffer(b"".join(nonces), dtype=">u8").astype(
            _np.uint64
        )
        blocks[:, 0] = _np.repeat(nonce_words, counts)
        starts = _np.repeat(_np.cumsum(counts) - counts, counts)
        blocks[:, 1] = (
            _np.arange(total_blocks, dtype=_np.int64) - starts
        ).astype(_np.uint64)
        if _np.little_endian:
            blocks.byteswap(inplace=True)
        enc = self._ecb.encryptor()
        return enc.update(blocks.tobytes()) + enc.finalize()

    def ctr_keystream_many(
        self, nonces: list[bytes], block_counts: list[int]
    ) -> list[bytes]:
        """CTR keystreams for a whole batch of messages."""
        flat = self.ctr_keystream_packed(nonces, block_counts)
        streams = []
        cursor = 0
        for count in block_counts:
            end = cursor + count * BLOCK_SIZE
            streams.append(flat[cursor:end])
            cursor = end
        return streams

    def cbc_mac_words(self, message: bytes) -> bytes:
        """CBC-MAC core over a block-aligned *message* (zero IV)."""
        if len(message) % BLOCK_SIZE:
            raise ValueError("CBC-MAC core needs a block-aligned message")
        if not message:
            return _ZERO_IV
        enc = Cipher(
            algorithms.AES(self._key), _ossl_modes.CBC(_ZERO_IV)
        ).encryptor()
        tail = enc.update(message) + enc.finalize()
        return tail[-BLOCK_SIZE:]

    def cbc_mac_many(self, messages: list[bytes]) -> list[bytes]:
        """CBC-MAC cores of a batch of block-aligned messages.

        With numpy available the batch runs in lockstep lanes: step *b*
        XORs block *b* of every still-unfinished message into its lane's
        state and encrypts all lanes with one ECB update, so the EVP
        setup cost is paid once per batch (ECB carries no state between
        updates).  The XOR is byte-wise, so host endianness never
        enters."""
        counts = [len(message) // BLOCK_SIZE for message in messages]
        if _np is None or len(messages) < 2:
            return [self.cbc_mac_words(message) for message in messages]
        for message in messages:
            if len(message) % BLOCK_SIZE:
                raise ValueError("CBC-MAC core needs a block-aligned message")
        lanes = len(messages)
        max_blocks = max(counts, default=0)
        uniform = lanes > 0 and min(counts) == max_blocks
        if uniform:
            data = _np.frombuffer(b"".join(messages), dtype=_np.uint8).reshape(
                lanes, max_blocks, BLOCK_SIZE
            )
        else:
            data = _np.zeros((lanes, max_blocks, BLOCK_SIZE), dtype=_np.uint8)
            for lane, message in enumerate(messages):
                w = _np.frombuffer(message, dtype=_np.uint8)
                data[lane, : counts[lane], :] = w.reshape(-1, BLOCK_SIZE)
        state = _np.zeros((lanes, BLOCK_SIZE), dtype=_np.uint8)
        macs: list[bytes | None] = [None] * lanes
        enc = self._ecb.encryptor()
        for block_index in range(max_blocks):
            state ^= data[:, block_index, :]
            out = enc.update(state.tobytes())
            state = _np.frombuffer(out, dtype=_np.uint8).reshape(
                lanes, BLOCK_SIZE
            ).copy()
            if uniform:
                continue
            for lane, count in enumerate(counts):
                if count == block_index + 1:
                    macs[lane] = out[16 * lane : 16 * lane + 16]
        enc.finalize()
        if uniform:
            flat = state.tobytes()
            return [flat[16 * i : 16 * i + 16] for i in range(lanes)]
        return [mac if mac is not None else _ZERO_IV for mac in macs]
