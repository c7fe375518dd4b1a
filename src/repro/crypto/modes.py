"""Chaining modes built on the AES-128 block transform.

Two modes are provided, each as one batch call:

* :func:`ctr_many` — counter mode, the engine behind the
  non-deterministic scheme ``nDet_Enc`` (a fresh random nonce per message
  makes every encryption of the same plaintext different);
* :func:`cbc_mac_many` — a CBC-MAC used as the synthetic-IV derivation of
  the deterministic scheme ``Det_Enc`` (same plaintext, same key → same
  ciphertext, which is exactly the property the noise-based protocols rely
  on for SSI-side grouping).

A single message is a batch of one.  This module owns what is the mode's
and not the engine's: argument checks, the MAC framing (length prefix +
PKCS#7 pad, per message, or as columns of one array for a uniform batch)
and the packed-buffer convention the ciphers' ``*_block`` adapters slice
by.  The AES work is a method of the :class:`~repro.crypto.aes.CipherEngine`
handed in: fused (T-tables), run in lockstep or looped (OpenSSL).  The
seed's per-byte loops survive in :mod:`repro.crypto.reference` as the
benchmark baseline.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Any, Sequence

from repro.core.messages import offsets_ascend
from repro.crypto.aes import BLOCK_SIZE, CipherEngine, _np

#: PKCS#7 tails by pad length (index 0 unused)
_PADS = tuple(bytes([n]) * n for n in range(BLOCK_SIZE + 1))


def ctr_many(
    cipher: CipherEngine,
    nonces: Sequence[bytes | memoryview],
    messages: Sequence[bytes | memoryview],
) -> list[bytes]:
    """Encrypt or decrypt each message in CTR mode (the operation is
    symmetric).

    Each nonce must be exactly 8 bytes; the remaining 8 bytes of the
    counter block carry a big-endian block counter starting at zero.
    """
    if len(nonces) != len(messages):
        raise ValueError("one nonce per message required")
    for nonce in nonces:
        if len(nonce) != 8:
            raise ValueError(f"CTR nonce must be 8 bytes, got {len(nonce)}")
    return cipher.ctr_many(nonces, messages)


def _mac_message(data: bytes | memoryview) -> bytes:
    """Length-prefix then pad: the framing under every CBC-MAC."""
    size = len(data)
    return b"".join(
        (size.to_bytes(8, "big"), data, _PADS[BLOCK_SIZE - (size + 8) % BLOCK_SIZE])
    )


def _frame_lanes(lanes: int, size: int) -> Any:
    """The MAC framing of *lanes* *size*-byte messages, ``[:, 8 : 8 + size]`` left."""
    pad = _PADS[BLOCK_SIZE - (size + 8) % BLOCK_SIZE]
    framed = _np.empty((lanes, 8 + size + len(pad)), dtype=_np.uint8)
    framed[:, :8] = _np.frombuffer(size.to_bytes(8, "big"), dtype=_np.uint8)
    framed[:, 8 + size :] = _np.frombuffer(pad, dtype=_np.uint8)
    return framed


def cbc_mac_many(
    cipher: CipherEngine, datas: Sequence[bytes | memoryview]
) -> list[bytes]:
    """CBC-MAC of each message (length-prefixed to avoid extension
    ambiguities between messages of different lengths)."""
    return cipher.cbc_mac_many([_mac_message(data) for data in datas])


# ---------------------------------------------------------------------- #
# packed-buffer convention of the ciphers' ``*_block`` adapters
# ---------------------------------------------------------------------- #
def _segments(
    buffer: bytes | memoryview, offsets: Sequence[int]
) -> list[memoryview]:
    """The messages packed in *buffer*: message *i* spans
    ``offsets[i]:offsets[i + 1]`` (the :func:`repro.core.codec.encode_packed`
    convention, ``count + 1`` offsets)."""
    view = memoryview(buffer)
    if not offsets or not offsets_ascend(offsets):
        raise ValueError("offsets must be a non-empty, non-decreasing table")
    if offsets[-1] > len(view):
        raise ValueError("offsets run past the packed buffer")
    return [view[offsets[i] : offsets[i + 1]] for i in range(len(offsets) - 1)]


def _packed(messages: list[bytes]) -> tuple[bytes, tuple[int, ...]]:
    """Join *messages* into one buffer plus its offsets table."""
    return b"".join(messages), tuple(accumulate(map(len, messages), initial=0))


def _lanes(buffer: bytes | bytearray, lanes: int, size: int, start: int = 0) -> Any:
    """The *lanes* *size*-byte messages packed in *buffer* from *start*, as an array."""
    array = _np.frombuffer(buffer, dtype=_np.uint8, count=lanes * size, offset=start)
    return array.reshape(lanes, size)
