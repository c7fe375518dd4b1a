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
cipher cache (:mod:`repro.crypto.cache`); the batched ``*_many`` and
packed ``*_block`` methods hand whole covering results to the engine,
which fuses them (T-tables) or loops its native message primitive
(OpenSSL).
"""

from __future__ import annotations

import hmac
from typing import Sequence

from repro.crypto import cache
from repro.crypto.modes import (
    cbc_mac,
    cbc_mac_many,
    ctr_transform,
    ctr_transform_many,
    ctr_transform_packed,
)
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

    def encrypt(self, plaintext: bytes) -> bytes:
        """Encrypt *plaintext*; equal plaintexts yield equal ciphertexts."""
        siv = cbc_mac(self._mac, plaintext)
        body = ctr_transform(self._enc, siv[:8], plaintext)
        return siv + body

    def decrypt(self, ciphertext: bytes) -> bytes:
        """Decrypt and verify the synthetic IV."""
        if len(ciphertext) < _SIV_SIZE:
            raise DecryptionError("ciphertext too short for Det_Enc framing")
        siv = ciphertext[:_SIV_SIZE]
        body = ciphertext[_SIV_SIZE:]
        plaintext = ctr_transform(self._enc, siv[:8], body)
        if not hmac.compare_digest(cbc_mac(self._mac, plaintext), siv):
            raise DecryptionError("Det_Enc synthetic IV mismatch")
        return plaintext

    # ------------------------------------------------------------------ #
    # batched interface (protocol hot path)
    # ------------------------------------------------------------------ #
    def encrypt_many(self, plaintexts: list[bytes]) -> list[bytes]:
        """Encrypt a batch in two engine passes (SIV MACs, then CTR)."""
        if not plaintexts:
            return []
        sivs = cbc_mac_many(self._mac, plaintexts)
        bodies = ctr_transform_many(
            self._enc, [siv[:8] for siv in sivs], plaintexts
        )
        return [siv + body for siv, body in zip(sivs, bodies)]

    def decrypt_many(self, ciphertexts: list[bytes]) -> list[bytes]:
        """Decrypt then verify a batch in two engine passes.

        Raises :class:`DecryptionError` if *any* synthetic IV mismatches —
        a batch is one trust decision."""
        if not ciphertexts:
            return []
        sivs, bodies = [], []
        for ciphertext in ciphertexts:
            if len(ciphertext) < _SIV_SIZE:
                raise DecryptionError("ciphertext too short for Det_Enc framing")
            sivs.append(ciphertext[:_SIV_SIZE])
            bodies.append(ciphertext[_SIV_SIZE:])
        plaintexts = ctr_transform_many(
            self._enc, [siv[:8] for siv in sivs], bodies
        )
        self._verify(plaintexts, sivs)
        return plaintexts

    def _verify(
        self,
        plaintexts: Sequence[bytes | memoryview],
        sivs: Sequence[bytes | memoryview],
    ) -> None:
        """One trust decision over a batch: every synthetic IV is
        recomputed and compared (constant-time per IV, no early exit
        across the batch) before any verdict is returned."""
        valid = True
        for siv, want in zip(sivs, cbc_mac_many(self._mac, plaintexts)):
            valid = hmac.compare_digest(siv, want) and valid
        if not valid:
            raise DecryptionError("Det_Enc synthetic IV mismatch")

    # ------------------------------------------------------------------ #
    # packed-block interface (no caller in src/; kept because
    # benchmarks/e2e/layers.py wraps both by name)
    # ------------------------------------------------------------------ #
    def encrypt_block(
        self, payloads: bytes | memoryview, offsets: Sequence[int]
    ) -> tuple[bytes, tuple[int, ...]]:
        """Encrypt a packed buffer of messages in one pass (SIV MACs,
        then one packed CTR pass).  Returns the packed ciphertext buffer
        and its offsets; each message grows by :meth:`ciphertext_overhead`
        bytes.  Determinism is preserved message-wise: each output segment
        equals :meth:`encrypt` of the corresponding input segment."""
        count = len(offsets) - 1
        view = memoryview(payloads)
        sivs = cbc_mac_many(
            self._mac, [view[offsets[i] : offsets[i + 1]] for i in range(count)]
        )
        bodies = memoryview(
            ctr_transform_packed(
                self._enc, [siv[:8] for siv in sivs], view, offsets
            )
        )
        pieces: list[bytes | memoryview] = []
        for i, siv in enumerate(sivs):
            pieces.append(siv)
            pieces.append(bodies[offsets[i] : offsets[i + 1]])
        return b"".join(pieces), tuple(
            offsets[i] + i * _SIV_SIZE for i in range(count + 1)
        )

    def decrypt_block(
        self, payloads: bytes | memoryview, offsets: Sequence[int]
    ) -> tuple[bytes, tuple[int, ...]]:
        """Decrypt then verify a packed buffer of ciphertexts.

        Raises :class:`DecryptionError` if *any* synthetic IV mismatches —
        the block is one trust decision, and every IV is compared
        (constant-time) before any verdict is returned."""
        count = len(offsets) - 1
        view = memoryview(payloads)
        sivs: list[memoryview] = []
        bodies: list[memoryview] = []
        for i in range(count):
            start, end = offsets[i], offsets[i + 1]
            if end - start < _SIV_SIZE:
                raise DecryptionError("ciphertext too short for Det_Enc framing")
            sivs.append(view[start : start + _SIV_SIZE])
            bodies.append(view[start + _SIV_SIZE : end])
        body_offsets = tuple(
            offsets[i] - offsets[0] - i * _SIV_SIZE for i in range(count + 1)
        )
        plain = ctr_transform_packed(
            self._enc,
            [bytes(siv[:8]) for siv in sivs],
            b"".join(bodies),
            body_offsets,
        )
        plain_view = memoryview(plain)
        self._verify(
            [
                plain_view[body_offsets[i] : body_offsets[i + 1]]
                for i in range(count)
            ],
            sivs,
        )
        return plain, body_offsets

    def ciphertext_overhead(self) -> int:
        """Bytes added on top of the plaintext length."""
        return _SIV_SIZE
