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
PKCS#7 pad, built in one copy, or one join for an equal-length batch)
and the packed-buffer convention the ciphers' ``*_block`` adapters slice
by.  The AES work is a method of the
:class:`~repro.crypto.aes.CipherEngine` handed in, which decides for
itself whether a batch is fused (T-tables), run in lockstep or looped
(OpenSSL).  The
seed's per-byte loops survive in :mod:`repro.crypto.reference` as the
benchmark baseline.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

from repro.core.messages import offsets_ascend
from repro.crypto.aes import BLOCK_SIZE, CipherEngine

#: PKCS#7 tails by pad length (index 0 unused)
_PADS = tuple(bytes([n]) * n for n in range(BLOCK_SIZE + 1))

#: from this many equal-length messages, framing the batch in one join
#: beats one join per message
_JOINED_FRAMING = 8


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


def cbc_mac_many(
    cipher: CipherEngine, datas: Sequence[bytes | memoryview]
) -> list[bytes]:
    """CBC-MAC of each message (length-prefixed to avoid extension
    ambiguities between messages of different lengths).  Equal-length
    messages share one prefix and one pad, so their framing is one join
    over the batch."""
    if len(datas) < _JOINED_FRAMING or len(set(map(len, datas))) != 1:
        return cipher.cbc_mac_many([_mac_message(data) for data in datas])
    size = len(datas[0])
    prefix = size.to_bytes(8, "big")
    pad = _PADS[BLOCK_SIZE - (size + 8) % BLOCK_SIZE]
    framed = b"".join((prefix, (pad + prefix).join(datas), pad))
    step = 8 + size + len(pad)
    return cipher.cbc_mac_many(
        [framed[start : start + step] for start in range(0, len(framed), step)]
    )


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
