"""Optional OpenSSL-backed AES-128 engine (via the ``cryptography`` wheel).

The paper's TDS offloads AES to a crypto-coprocessor; on a development
machine the closest analogue is the host's AES-NI path, reached through
``cryptography``'s OpenSSL bindings.  This module is an *engine* in the
sense of :class:`repro.crypto.aes.CipherEngine`, so the chaining modes
and the protocol ciphers above them are byte-for-byte oblivious to which
engine is underneath.

The AES here is native, so a call should cost its AES and not its set-up:
the engine keeps **persistent EVP contexts** and makes the single message
the primitive (batches are the plain loops :class:`CipherEngine`
provides).

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

Contexts are **per thread** (``MultiQueryRunner`` decrypts results on
``asyncio.to_thread`` while the loop thread's fleet uses the same cached
engine) and a context whose call raised is **discarded**, never reused —
its chaining state is unknown.  ``reset_nonce`` needs ``cryptography``
>= 43; :func:`repro.crypto.cache.use_engine` probes :func:`usable` and
falls through to the T-table engine without it, as it does when this
module fails to import.  Correctness is pinned by the parity fuzz in
``tests/crypto/test_block_api.py`` against :mod:`repro.crypto.reference`.
"""

from __future__ import annotations

import threading

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms
from cryptography.hazmat.primitives.ciphers import modes as _ossl_modes

from repro.crypto.aes import BLOCK_SIZE, KEY_SIZE, CipherEngine
from repro.exceptions import InvalidKeyError

#: the first ``cryptography`` release whose CTR contexts have ``reset_nonce``
MIN_CRYPTOGRAPHY = "43"

_ZERO_IV = bytes(BLOCK_SIZE)
_ZERO_COUNTER = bytes(8)


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
        #: this thread's contexts: ``ctr``, and ``cbc`` with its ``chain``
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
    # message primitives
    # ------------------------------------------------------------------ #
    def ctr_transform(self, nonce: bytes, data: bytes | memoryview) -> bytes:
        """Encrypt or decrypt one message in CTR mode (symmetric)."""
        if len(nonce) != 8:
            raise ValueError(f"CTR nonce must be 8 bytes, got {len(nonce)}")
        local = self._local
        try:
            context = local.ctr
        except AttributeError:
            context = local.ctr = Cipher(
                self._cipher, _ossl_modes.CTR(_ZERO_IV)
            ).encryptor()
        try:
            context.reset_nonce(nonce + _ZERO_COUNTER)
            return context.update(data)
        except BaseException:
            del local.ctr
            raise

    def ctr_keystream(self, nonce: bytes, num_blocks: int) -> bytes:
        """The CTR keystream for counter blocks ``nonce || 0..num_blocks-1``."""
        return self.ctr_transform(nonce, bytes(max(num_blocks, 0) * BLOCK_SIZE))

    def cbc_mac_words(self, message: bytes) -> bytes:
        """CBC-MAC core over a block-aligned *message* (zero IV)."""
        if len(message) % BLOCK_SIZE:
            raise ValueError("CBC-MAC core needs a block-aligned message")
        if not message:
            return _ZERO_IV
        local = self._local
        try:
            context = local.cbc
        except AttributeError:
            context = local.cbc = Cipher(
                self._cipher, _ossl_modes.CBC(_ZERO_IV)
            ).encryptor()
            local.chain = 0
        try:
            first = int.from_bytes(message[:BLOCK_SIZE], "big") ^ local.chain
            tag = context.update(
                first.to_bytes(BLOCK_SIZE, "big") + message[BLOCK_SIZE:]
            )[-BLOCK_SIZE:]
            local.chain = int.from_bytes(tag, "big")
            return tag
        except BaseException:
            del local.cbc
            raise
