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

All six public calls (a message, a list, a packed buffer + offsets; each
direction) hand the batch to the engine through one list kernel per
direction, except a packed block of one stride past the engine's
crossover: one ``(lanes, size)`` array (``_seal_lanes`` / ``_open_lanes``).

A seedable :class:`random.Random` may be injected for reproducible
simulations; by default nonces come from :mod:`secrets`.
"""

from __future__ import annotations

import hmac
import random
import secrets
from typing import Any, Sequence

from repro.core.messages import offsets_stride
from repro.crypto import cache
from repro.crypto.modes import _frame_lanes, _lanes, _packed, _segments, cbc_mac_many, ctr_many
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

    def _nonces(self, count: int) -> bytes:
        """*count* fresh 8-byte CTR nonces, from one call: ``getrandbits(64 * n)``
        holds n ``getrandbits(64)`` draws as little-endian words, so written
        big-endian and reversed word-wise, each draw's big-endian bytes in order."""
        if self._rng is None:
            return secrets.token_bytes(_NONCE_SIZE * count)
        pool = self._rng.getrandbits(64 * count).to_bytes(_NONCE_SIZE * count, "big")
        return pool if count < 2 else memoryview(pool).cast("Q")[::-1].tobytes()

    def fresh_nonces(self, count: int) -> list[bytes]:
        """*count* fresh CTR nonces (one rng or :mod:`secrets` call)."""
        pool = self._nonces(count)
        return [pool[i : i + _NONCE_SIZE] for i in range(0, len(pool), _NONCE_SIZE)]

    # ------------------------------------------------------------------ #
    # the kernels: a seal and an open over a list of messages, and over a
    # (lanes, size) array of equal-length ones
    # ------------------------------------------------------------------ #
    def _seal(
        self,
        plaintexts: Sequence[bytes | memoryview],
        nonces: Sequence[bytes],
    ) -> list[bytes]:
        """Encrypt a batch in two engine passes (CTR, then MAC)."""
        bodies = ctr_many(self._enc, nonces, plaintexts)
        sealed = [nonce + body for nonce, body in zip(nonces, bodies)]
        tags = cbc_mac_many(self._mac, sealed)
        return [message + tag for message, tag in zip(sealed, tags)]

    def _open(self, ciphertexts: Sequence[bytes | memoryview]) -> list[bytes]:
        """Authenticate then decrypt a batch in two engine passes.

        Raises :class:`DecryptionError` if *any* element is truncated or
        tampered — a batch is one trust decision, and every tag is
        compared (constant-time per tag, no early exit, so the work is
        independent of *where* a forgery sits) before any verdict is
        returned."""
        sealed, tags = [], []
        for ciphertext in ciphertexts:
            if len(ciphertext) < _OVERHEAD:
                raise DecryptionError("ciphertext too short for nDet_Enc framing")
            sealed.append(ciphertext[:-_TAG_SIZE])
            tags.append(ciphertext[-_TAG_SIZE:])
        valid = True
        for tag, want in zip(tags, cbc_mac_many(self._mac, sealed)):
            valid = hmac.compare_digest(tag, want) and valid
        if not valid:
            raise DecryptionError("nDet_Enc authentication tag mismatch")
        return ctr_many(
            self._enc,
            [message[:_NONCE_SIZE] for message in sealed],
            [message[_NONCE_SIZE:] for message in sealed],
        )

    def _seal_lanes(self, plaintexts: Any) -> tuple[bytes, tuple[int, ...]]:
        """Seal the rows of an array into one packed buffer, CTR into the MAC framing."""
        lanes, size = plaintexts.shape
        nonces = _lanes(self._nonces(lanes), lanes, _NONCE_SIZE)
        framed = _frame_lanes(lanes, _NONCE_SIZE + size)
        framed[:, 8:16] = nonces
        self._enc._ctr_lockstep(nonces, plaintexts, framed[:, 16 : 16 + size])
        out = bytearray(lanes * (size + _OVERHEAD))
        sealed = _lanes(out, lanes, size + _OVERHEAD)
        sealed[:, : _NONCE_SIZE + size] = framed[:, 8 : 16 + size]
        sealed[:, _NONCE_SIZE + size :] = self._mac._cbc_mac_lockstep(framed)
        return bytes(out), tuple(range(0, len(out) + 1, size + _OVERHEAD))

    def _open_lanes(self, ciphertexts: Any) -> tuple[bytes, tuple[int, ...]]:
        """Open the rows of an array into one packed buffer, all tags in one comparison."""
        lanes, size = ciphertexts.shape
        framed = _frame_lanes(lanes, size - _TAG_SIZE)
        framed[:, 8 : size - 8] = ciphertexts[:, :-_TAG_SIZE]
        want = self._mac._cbc_mac_lockstep(framed)
        if not hmac.compare_digest(ciphertexts[:, -_TAG_SIZE:].tobytes(), want.tobytes()):
            raise DecryptionError("nDet_Enc authentication tag mismatch")
        out = bytearray(lanes * (size - _OVERHEAD))
        nonces, bodies = ciphertexts[:, :_NONCE_SIZE], ciphertexts[:, _NONCE_SIZE:-_TAG_SIZE]
        self._enc._ctr_lockstep(nonces, bodies, _lanes(out, lanes, size - _OVERHEAD))
        return bytes(out), tuple(range(0, len(out) + 1, size - _OVERHEAD))

    # ------------------------------------------------------------------ #
    # the call shapes: a message, a list, a packed buffer + offsets
    # ------------------------------------------------------------------ #
    def encrypt(self, plaintext: bytes) -> bytes:
        """Encrypt *plaintext* under a fresh nonce."""
        return self._seal([plaintext], [self._nonces(1)])[0]

    def decrypt(self, ciphertext: bytes) -> bytes:
        """Decrypt and authenticate; raises :class:`DecryptionError` on
        truncated or tampered input."""
        return self._open([ciphertext])[0]

    def encrypt_many(self, plaintexts: list[bytes]) -> list[bytes]:
        """Encrypt a batch, one fresh nonce per message."""
        return self._seal(plaintexts, self.fresh_nonces(len(plaintexts)))

    def decrypt_many(self, ciphertexts: Sequence[bytes | memoryview]) -> list[bytes]:
        """Authenticate then decrypt a batch (one trust decision)."""
        return self._open(ciphertexts)

    def encrypt_block(
        self,
        payloads: bytes | memoryview,
        offsets: Sequence[int],
        *,
        nonces: Sequence[bytes] | None = None,
    ) -> tuple[bytes, tuple[int, ...]]:
        """Encrypt the messages packed in *payloads* + *offsets* (the
        :func:`repro.core.codec.encode_packed` convention), returning the
        packed ciphertexts and their offsets; each message grows by
        :meth:`ciphertext_overhead` bytes.  Explicit *nonces* make the
        output reproducible."""
        lanes, size = len(offsets) - 1, (offsets[1] - offsets[0] if len(offsets) > 1 else 0)
        if nonces is None and self._enc._lockstep(lanes, size) and offsets_stride(offsets) == size:
            return self._seal_lanes(_lanes(payloads, lanes, size, offsets[0]))
        segments = _segments(payloads, offsets)
        if nonces is None:
            nonces = self.fresh_nonces(len(segments))
        elif len(nonces) != len(segments):
            raise ValueError("one nonce per packed message required")
        return _packed(self._seal(segments, nonces))

    def decrypt_block(
        self, payloads: bytes | memoryview, offsets: Sequence[int]
    ) -> tuple[bytes, tuple[int, ...]]:
        """Authenticate then decrypt packed ciphertexts (one trust
        decision), returning the packed plaintexts and their offsets."""
        lanes, size = len(offsets) - 1, (offsets[1] - offsets[0] if len(offsets) > 1 else 0)
        if self._enc._lockstep(lanes, size - _OVERHEAD) and offsets_stride(offsets) == size:
            return self._open_lanes(_lanes(payloads, lanes, size, offsets[0]))
        return _packed(self._open(_segments(payloads, offsets)))

    def ciphertext_overhead(self) -> int:
        """Bytes added on top of the plaintext length."""
        return _OVERHEAD
