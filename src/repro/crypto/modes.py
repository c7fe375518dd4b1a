"""Chaining modes built on the AES-128 block transform.

Two modes are provided:

* :func:`ctr_transform` — counter mode, the engine behind the
  non-deterministic scheme ``nDet_Enc`` (a fresh random nonce per message
  makes every encryption of the same plaintext different);
* :func:`cbc_mac` — a CBC-MAC used as the synthetic-IV derivation of the
  deterministic scheme ``Det_Enc`` (same plaintext, same key → same
  ciphertext, which is exactly the property the noise-based protocols rely
  on for SSI-side grouping).

This module owns what is the mode's and not the engine's: argument
checks, the MAC framing (length prefix + PKCS#7, built in one copy) and
the packed-buffer conventions.  The AES work — per message, per batch or
per packed buffer — is a method of the
:class:`~repro.crypto.aes.CipherEngine` handed in, which decides for
itself whether a batch is fused (T-tables) or looped (OpenSSL).  The
seed's per-byte loops survive in :mod:`repro.crypto.reference` as the
benchmark baseline.

Padding helpers implement PKCS#7 so arbitrary-length tuples round-trip.
"""

from __future__ import annotations

from typing import Sequence

from repro.crypto.aes import BLOCK_SIZE, CipherEngine
from repro.exceptions import DecryptionError

#: PKCS#7 tails by pad length (index 0 unused)
_PADS = tuple(bytes([n]) * n for n in range(BLOCK_SIZE + 1))


def pkcs7_pad(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    """Pad *data* to a multiple of *block_size* with PKCS#7 padding."""
    pad_len = block_size - (len(data) % block_size)
    return data + bytes([pad_len]) * pad_len


def pkcs7_unpad(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    """Remove PKCS#7 padding, raising :class:`DecryptionError` if invalid."""
    if not data or len(data) % block_size != 0:
        raise DecryptionError("padded data length is not a multiple of the block size")
    pad_len = data[-1]
    if pad_len < 1 or pad_len > block_size:
        raise DecryptionError("invalid padding length byte")
    if data[-pad_len:] != bytes([pad_len]) * pad_len:
        raise DecryptionError("padding bytes are inconsistent")
    return data[:-pad_len]


def ctr_transform(
    cipher: CipherEngine, nonce: bytes, data: bytes | memoryview
) -> bytes:
    """Encrypt or decrypt *data* in CTR mode (the operation is symmetric).

    *nonce* must be exactly 8 bytes; the remaining 8 bytes of the counter
    block carry a big-endian block counter.
    """
    if len(nonce) != 8:
        raise ValueError(f"CTR nonce must be 8 bytes, got {len(nonce)}")
    return cipher.ctr_transform(nonce, data)


def ctr_transform_many(
    cipher: CipherEngine, nonces: Sequence[bytes], messages: Sequence[bytes]
) -> list[bytes]:
    """CTR-transform a batch of messages."""
    if len(nonces) != len(messages):
        raise ValueError("one nonce per message required")
    return cipher.ctr_transform_many(nonces, messages)


def _mac_message(data: bytes | memoryview) -> bytes:
    """Length-prefix then pad: the framing under every CBC-MAC."""
    size = len(data)
    return b"".join(
        (size.to_bytes(8, "big"), data, _PADS[BLOCK_SIZE - (size + 8) % BLOCK_SIZE])
    )


def cbc_mac(cipher: CipherEngine, data: bytes | memoryview) -> bytes:
    """Compute a CBC-MAC over *data* (length-prefixed to avoid extension
    ambiguities between messages of different lengths)."""
    return cipher.cbc_mac_words(_mac_message(data))


def cbc_mac_many(
    cipher: CipherEngine, datas: Sequence[bytes | memoryview]
) -> list[bytes]:
    """CBC-MACs of a batch of messages."""
    return cipher.cbc_mac_many([_mac_message(data) for data in datas])


# ---------------------------------------------------------------------- #
# packed-buffer interface
# ---------------------------------------------------------------------- #


def ctr_transform_packed(
    cipher: CipherEngine,
    nonces: Sequence[bytes],
    buffer: bytes | memoryview,
    offsets: Sequence[int],
) -> bytes:
    """CTR-transform messages packed in one buffer, returning a packed
    buffer of the same shape (CTR is length-preserving).

    ``offsets`` has one entry per message boundary (``len(messages) + 1``
    entries, first 0, last ``len(buffer)``) — the
    :func:`repro.core.codec.encode_packed` convention."""
    count = len(offsets) - 1
    if count < 0:
        raise ValueError("offsets must have at least one entry")
    if len(nonces) != count:
        raise ValueError("one nonce per packed message required")
    for nonce in nonces:
        if len(nonce) != 8:
            raise ValueError(f"CTR nonce must be 8 bytes, got {len(nonce)}")
    view = memoryview(buffer)
    if offsets[0] != 0 or offsets[-1] != len(view):
        raise ValueError("offsets must span the packed buffer exactly")
    if any(offsets[i] > offsets[i + 1] for i in range(count)):
        raise ValueError("offsets must be non-decreasing")
    return cipher.ctr_transform_packed(nonces, view, offsets)
