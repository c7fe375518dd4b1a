"""Deterministic encryption — ``Det_Enc`` in the paper.

The same (key, plaintext) pair always produces the same ciphertext.  The
noise-based protocols (§4.3) rely on this so that the SSI can group tuples
of the same GROUP BY value *without decrypting them* — at the price of
revealing the ciphertext frequency distribution, which is exactly what the
injected noise then hides.

The construction is SIV-style: a CBC-MAC of the plaintext is used both as
the CTR nonce and as the authentication tag.

    ciphertext = SIV(16) || CTR(k_enc, SIV[:8], plaintext)

Subkey derivation and key-schedule expansion go through the process-wide
cipher cache (:mod:`repro.crypto.cache`).  As in ``nDet_Enc``, the six
public calls are adapters over one private kernel per direction, which
hands the whole batch to the engine: fused (T-tables), or in lockstep
when its messages share one length and looped otherwise (OpenSSL).
"""

from __future__ import annotations

import hmac
from typing import Sequence

from repro.crypto import cache
from repro.crypto.modes import _packed, _segments, cbc_mac_many, ctr_many
from repro.exceptions import DecryptionError

_SIV_SIZE = 16


class DeterministicCipher:
    """``Det_Enc``: deterministic authenticated encryption.

    >>> cipher = DeterministicCipher(bytes(16))
    >>> cipher.encrypt(b"Paris") == cipher.encrypt(b"Paris")
    True
    >>> cipher.decrypt(cipher.encrypt(b"Paris"))
    b'Paris'
    """

    deterministic = True

    def __init__(self, key: bytes) -> None:
        self._enc = cache.aes_for_subkey(key, b"Det/enc")
        self._mac = cache.aes_for_subkey(key, b"Det/mac")

    # ------------------------------------------------------------------ #
    # the kernel: one seal and one open, each over a list of messages
    # ------------------------------------------------------------------ #
    def _seal(self, plaintexts: Sequence[bytes | memoryview]) -> list[bytes]:
        """Encrypt a batch in two engine passes (SIV MACs, then CTR)."""
        sivs = cbc_mac_many(self._mac, plaintexts)
        bodies = ctr_many(self._enc, [siv[:8] for siv in sivs], plaintexts)
        return [siv + body for siv, body in zip(sivs, bodies)]

    def _open(self, ciphertexts: Sequence[bytes | memoryview]) -> list[bytes]:
        """Decrypt then verify a batch in two engine passes.

        Raises :class:`DecryptionError` if *any* synthetic IV mismatches —
        a batch is one trust decision, and every IV is recomputed and
        compared (constant-time per IV, no early exit across the batch)
        before any verdict is returned."""
        sivs, bodies = [], []
        for ciphertext in ciphertexts:
            if len(ciphertext) < _SIV_SIZE:
                raise DecryptionError("ciphertext too short for Det_Enc framing")
            sivs.append(ciphertext[:_SIV_SIZE])
            bodies.append(ciphertext[_SIV_SIZE:])
        plaintexts = ctr_many(self._enc, [siv[:8] for siv in sivs], bodies)
        valid = True
        for siv, want in zip(sivs, cbc_mac_many(self._mac, plaintexts)):
            valid = hmac.compare_digest(siv, want) and valid
        if not valid:
            raise DecryptionError("Det_Enc synthetic IV mismatch")
        return plaintexts

    # ------------------------------------------------------------------ #
    # the call shapes: a message, a list, a packed buffer + offsets
    # (the packed pair has no caller in src/; benchmarks/e2e/layers.py
    # wraps all six by name)
    # ------------------------------------------------------------------ #
    def encrypt(self, plaintext: bytes) -> bytes:
        """Encrypt *plaintext*; equal plaintexts yield equal ciphertexts."""
        return self._seal([plaintext])[0]

    def decrypt(self, ciphertext: bytes) -> bytes:
        """Decrypt and verify the synthetic IV."""
        return self._open([ciphertext])[0]

    def encrypt_many(self, plaintexts: list[bytes]) -> list[bytes]:
        """Encrypt a batch; each element equals :meth:`encrypt` of it."""
        return self._seal(plaintexts)

    def decrypt_many(self, ciphertexts: list[bytes]) -> list[bytes]:
        """Decrypt then verify a batch (one trust decision)."""
        return self._open(ciphertexts)

    def encrypt_block(
        self, payloads: bytes | memoryview, offsets: Sequence[int]
    ) -> tuple[bytes, tuple[int, ...]]:
        """Encrypt the messages packed in *payloads* + *offsets*,
        returning the packed ciphertexts and their offsets; each message
        grows by :meth:`ciphertext_overhead` bytes and equals
        :meth:`encrypt` of its segment."""
        return _packed(self._seal(_segments(payloads, offsets)))

    def decrypt_block(
        self, payloads: bytes | memoryview, offsets: Sequence[int]
    ) -> tuple[bytes, tuple[int, ...]]:
        """Decrypt then verify packed ciphertexts (one trust decision),
        returning the packed plaintexts and their offsets."""
        return _packed(self._open(_segments(payloads, offsets)))

    def ciphertext_overhead(self) -> int:
        """Bytes added on top of the plaintext length."""
        return _SIV_SIZE
