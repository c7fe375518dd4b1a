"""Non-deterministic (probabilistic) encryption — ``nDet_Enc`` in the paper.

Several encryptions of the same message yield different ciphertexts, so an
honest-but-curious SSI observing the traffic cannot run frequency-based
attacks (§3.1, "Dataflow obfuscation").  The construction is
encrypt-then-MAC:

    ciphertext = nonce(8) || CTR(k_enc, nonce, plaintext) || CBC-MAC(k_mac, nonce || body)

Sub-keys ``k_enc`` and ``k_mac`` are derived from the shared key so a single
16-byte key (k1 or k2 of the paper) is all that TDSs need to exchange.
Derivation and key-schedule expansion go through the process-wide cipher
cache (:mod:`repro.crypto.cache`), so constructing one of these objects is
cheap enough to do per call — key rotation is picked up for free.

The batched :meth:`NonDeterministicCipher.encrypt_many` /
:meth:`~NonDeterministicCipher.decrypt_many` and the packed ``*_block``
calls hand a whole covering result to the engine, which fuses it
(T-tables) or loops its native message primitive (OpenSSL); protocol hot
paths should prefer them over per-tuple calls.

A seedable :class:`random.Random` may be injected for reproducible
simulations; by default nonces come from :mod:`secrets`.
"""

from __future__ import annotations

import hmac
import random
import secrets
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

_NONCE_SIZE = 8
_TAG_SIZE = 16
_OVERHEAD = _NONCE_SIZE + _TAG_SIZE


class NonDeterministicCipher:
    """``nDet_Enc``: probabilistic authenticated encryption.

    >>> cipher = NonDeterministicCipher(bytes(16), rng=random.Random(0))
    >>> a = cipher.encrypt(b"alice")
    >>> b = cipher.encrypt(b"alice")
    >>> a != b and cipher.decrypt(a) == cipher.decrypt(b) == b"alice"
    True
    """

    #: True for deterministic schemes; used by protocol code to assert the
    #: correct scheme is applied to each dataflow.
    deterministic = False

    def __init__(self, key: bytes, rng: random.Random | None = None) -> None:
        self._enc = cache.aes_for_subkey(key, b"nDet/enc")
        self._mac = cache.aes_for_subkey(key, b"nDet/mac")
        self._rng = rng

    def _fresh_nonce(self) -> bytes:
        if self._rng is not None:
            return self._rng.getrandbits(64).to_bytes(8, "big")
        return secrets.token_bytes(_NONCE_SIZE)

    def fresh_nonces(self, count: int) -> list[bytes]:
        """*count* fresh CTR nonces (one :mod:`secrets` call, not *count*)."""
        if self._rng is not None:
            return [self._fresh_nonce() for __ in range(count)]
        pool = secrets.token_bytes(_NONCE_SIZE * count)
        return [
            pool[i * _NONCE_SIZE : (i + 1) * _NONCE_SIZE] for i in range(count)
        ]

    def encrypt(self, plaintext: bytes) -> bytes:
        """Encrypt *plaintext* under a fresh nonce."""
        nonce = self._fresh_nonce()
        sealed = nonce + ctr_transform(self._enc, nonce, plaintext)
        return sealed + cbc_mac(self._mac, sealed)

    def decrypt(self, ciphertext: bytes) -> bytes:
        """Decrypt and authenticate; raises :class:`DecryptionError` on
        truncated or tampered input."""
        if len(ciphertext) < _OVERHEAD:
            raise DecryptionError("ciphertext too short for nDet_Enc framing")
        sealed = ciphertext[:-_TAG_SIZE]
        tag = ciphertext[-_TAG_SIZE:]
        if not hmac.compare_digest(cbc_mac(self._mac, sealed), tag):
            raise DecryptionError("nDet_Enc authentication tag mismatch")
        return ctr_transform(
            self._enc, sealed[:_NONCE_SIZE], sealed[_NONCE_SIZE:]
        )

    # ------------------------------------------------------------------ #
    # batched interface (protocol hot path)
    # ------------------------------------------------------------------ #
    def encrypt_many(self, plaintexts: list[bytes]) -> list[bytes]:
        """Encrypt a batch in two engine passes (CTR, then MAC)."""
        if not plaintexts:
            return []
        nonces = self.fresh_nonces(len(plaintexts))
        bodies = ctr_transform_many(self._enc, nonces, plaintexts)
        sealed = [nonce + body for nonce, body in zip(nonces, bodies)]
        tags = cbc_mac_many(self._mac, sealed)
        return [message + tag for message, tag in zip(sealed, tags)]

    def decrypt_many(self, ciphertexts: list[bytes]) -> list[bytes]:
        """Authenticate then decrypt a batch in two engine passes.

        Raises :class:`DecryptionError` if *any* element is truncated or
        tampered — a batch is one trust decision."""
        if not ciphertexts:
            return []
        sealed, tags = [], []
        for ciphertext in ciphertexts:
            if len(ciphertext) < _OVERHEAD:
                raise DecryptionError("ciphertext too short for nDet_Enc framing")
            sealed.append(ciphertext[:-_TAG_SIZE])
            tags.append(ciphertext[-_TAG_SIZE:])
        self._verify(sealed, tags)
        return ctr_transform_many(
            self._enc,
            [message[:_NONCE_SIZE] for message in sealed],
            [message[_NONCE_SIZE:] for message in sealed],
        )

    def _verify(
        self,
        sealed: Sequence[bytes | memoryview],
        tags: Sequence[bytes | memoryview],
    ) -> None:
        """One trust decision over a batch of ``nonce || body`` messages:
        every tag is compared (constant-time per tag, no early exit, so
        the work is independent of *where* a forgery sits) before any
        verdict is returned."""
        valid = True
        for tag, want in zip(tags, cbc_mac_many(self._mac, sealed)):
            valid = hmac.compare_digest(tag, want) and valid
        if not valid:
            raise DecryptionError("nDet_Enc authentication tag mismatch")

    # ------------------------------------------------------------------ #
    # packed-block interface
    # ------------------------------------------------------------------ #
    def encrypt_block(
        self,
        payloads: bytes | memoryview,
        offsets: Sequence[int],
        *,
        nonces: Sequence[bytes] | None = None,
    ) -> tuple[bytes, tuple[int, ...]]:
        """Encrypt a packed buffer of messages in one pass.

        *payloads* + *offsets* follow the
        :func:`repro.core.codec.encode_packed` convention (``count + 1``
        offsets spanning the buffer).  Returns the packed ciphertext
        buffer and its offsets; each message grows by
        :meth:`ciphertext_overhead` bytes.  Explicit *nonces* make the
        output reproducible."""
        count = len(offsets) - 1
        if nonces is None:
            nonces = self.fresh_nonces(count)
        elif len(nonces) != count:
            raise ValueError("one nonce per packed message required")
        bodies = memoryview(
            ctr_transform_packed(self._enc, nonces, payloads, offsets)
        )
        sealed = [
            nonces[i] + bodies[offsets[i] : offsets[i + 1]]
            for i in range(count)
        ]
        pieces: list[bytes] = []
        for message, tag in zip(sealed, cbc_mac_many(self._mac, sealed)):
            pieces.append(message)
            pieces.append(tag)
        return b"".join(pieces), tuple(
            offsets[i] + i * _OVERHEAD for i in range(count + 1)
        )

    def decrypt_block(
        self, payloads: bytes | memoryview, offsets: Sequence[int]
    ) -> tuple[bytes, tuple[int, ...]]:
        """Authenticate then decrypt a packed buffer of ciphertexts.

        Returns the packed plaintext buffer and its offsets.  Raises
        :class:`DecryptionError` if *any* message is truncated or
        tampered — the block is one trust decision, and every tag is
        compared (constant-time) before any verdict is returned."""
        count = len(offsets) - 1
        view = memoryview(payloads)
        sealed: list[memoryview] = []
        tags: list[memoryview] = []
        for i in range(count):
            start, end = offsets[i], offsets[i + 1]
            if end - start < _OVERHEAD:
                raise DecryptionError("ciphertext too short for nDet_Enc framing")
            sealed.append(view[start : end - _TAG_SIZE])
            tags.append(view[end - _TAG_SIZE : end])
        self._verify(sealed, tags)
        body_offsets = tuple(
            offsets[i] - offsets[0] - i * _OVERHEAD for i in range(count + 1)
        )
        plain = ctr_transform_packed(
            self._enc,
            [bytes(message[:_NONCE_SIZE]) for message in sealed],
            b"".join([message[_NONCE_SIZE:] for message in sealed]),
            body_offsets,
        )
        return plain, body_offsets

    def ciphertext_overhead(self) -> int:
        """Bytes added on top of the plaintext length."""
        return _OVERHEAD
