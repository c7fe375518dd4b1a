"""Process-wide cipher cache keyed by key material — and engine selection.

The protocol layer builds ciphers *constantly*: every ``Querier._cipher()``
call, every TDS collection, every partition fold re-derives the enc/MAC
subkeys (a SHA-256 each) and re-expands two AES key schedules.  For a
population of thousands of simulated TDSs sharing the same k1/k2, that work
is identical every time.  This module memoizes it:

* :func:`aes_for_subkey` — the (master, label) → expanded engine cache used
  by :class:`~repro.crypto.ndet.NonDeterministicCipher` and
  :class:`~repro.crypto.det.DeterministicCipher` construction, making
  cipher objects cheap throwaway wrappers around shared engines;
* :func:`det_cipher` / :func:`ndet_cipher` — convenience constructors for
  the hot call sites;
* :func:`invalidate_key` — called by :meth:`repro.crypto.keys.KeyRing.rotate`
  so superseded key epochs do not pin engines in memory forever.  Eviction
  is a pure memory-hygiene operation: cache entries are deterministic
  functions of the key material, so a re-build after eviction yields an
  identical engine.

This is also where the **engine** is chosen.  Everything above the cache
(modes, ciphers, protocols) is engine-agnostic; :func:`use_engine` selects
which block-cipher implementation the cache hands out:

* ``cryptography`` — OpenSSL/AES-NI via the optional ``cryptography``
  wheel (:mod:`repro.crypto.openssl`), the fastest path: persistent
  per-thread contexts, so a call costs its AES and not its set-up;
* ``ttable`` — the dependency-free T-table + numpy bulk engine
  (:class:`repro.crypto.aes.AES128`), the software stand-in for the
  paper's crypto-coprocessor.

``auto`` (the default, also via the ``REPRO_CRYPTO_ENGINE`` environment
variable) picks ``cryptography`` when importable and recent enough
(>= 43, for ``reset_nonce``) and falls back to ``ttable``.  All engines
are byte-for-byte interchangeable — the parity fuzz in
``tests/crypto/test_block_api.py`` pins them to the per-byte oracle
(:mod:`repro.crypto.reference`), which is not a selectable engine.

The cache is bounded: when full, the **oldest-inserted** entry is evicted
(dict insertion order), and with it the AES schedule its engine holds, so a
workload cycling through millions of distinct keys (fuzzing, adversarial
rotation) degrades to uncached behaviour instead of exhausting memory —
without the stampede a full clear would cause for the keys still in use.
"""

from __future__ import annotations

import os
import random
import threading
from typing import TYPE_CHECKING, Callable

from repro.crypto.aes import AES128, CipherEngine
from repro.crypto.keys import derive_subkey
from repro.exceptions import ConfigurationError

if TYPE_CHECKING:
    from repro.crypto.det import DeterministicCipher
    from repro.crypto.ndet import NonDeterministicCipher

_MAX_ENTRIES = 1024

#: environment override for the engine choice (read once, lazily)
ENGINE_ENV = "REPRO_CRYPTO_ENGINE"
ENGINE_CHOICES = ("auto", "cryptography", "ttable")

_lock = threading.Lock()
_engines: dict[tuple[bytes, bytes], CipherEngine] = {}
_hits = 0
_misses = 0
_engine_name: str | None = None
_engine_factory: Callable[[bytes], CipherEngine] | None = None


def _resolve_engine(choice: str) -> tuple[str, Callable[[bytes], CipherEngine]]:
    """Map an engine *choice* to (canonical name, subkey → engine factory)."""
    if choice in ("auto", "cryptography", "openssl"):
        try:
            from repro.crypto import openssl
        except ImportError:
            missing = "the cryptography package is not installed"
        else:
            if openssl.usable():
                return "cryptography", openssl.OpenSSLAES128
            missing = (
                f"it needs cryptography >= {openssl.MIN_CRYPTOGRAPHY} "
                "(CipherContext.reset_nonce)"
            )
        if choice != "auto":
            raise ConfigurationError(
                f"crypto engine 'cryptography' requested but {missing}"
            )
    if choice in ("auto", "ttable"):
        return "ttable", AES128
    raise ConfigurationError(
        f"unknown crypto engine {choice!r}; expected one of {ENGINE_CHOICES}"
    )


def use_engine(name: str | None = None) -> str:
    """Select the block-cipher engine behind the cache.

    ``None`` re-resolves from ``REPRO_CRYPTO_ENGINE`` (default ``auto``).
    Returns the canonical name of the engine now in effect.  Cached
    engines of the previous selection are dropped."""
    choice = name if name is not None else os.environ.get(ENGINE_ENV, "auto")
    resolved, factory = _resolve_engine(choice.strip().lower() or "auto")
    global _engine_name, _engine_factory
    with _lock:
        if resolved != _engine_name:
            _engines.clear()
        _engine_name = resolved
        _engine_factory = factory
    return resolved


def selected_engine() -> str:
    """Canonical name of the engine in effect (resolving it if needed)."""
    if _engine_name is None:
        return use_engine()
    return _engine_name


def aes_for_subkey(master: bytes, label: bytes) -> CipherEngine:
    """The AES engine for ``derive_subkey(master, label)``, memoized.

    Counters and the entry map are only touched under the cache lock;
    engine construction (schedule expansion) happens outside it so a miss
    does not serialize concurrent lookups of other keys."""
    global _hits, _misses
    cache_key = (bytes(master), bytes(label))
    with _lock:
        engine = _engines.get(cache_key)
        if engine is not None:
            _hits += 1
            return engine
        factory = _engine_factory
    if factory is None:
        use_engine()
        factory = _engine_factory
        assert factory is not None
    built = factory(derive_subkey(master, label))
    with _lock:
        _misses += 1
        engine = _engines.get(cache_key)
        if engine is None:
            # Evict oldest-inserted entries (dict order) one at a time —
            # no full-cache clear, no latency cliff for hot keys.
            while len(_engines) >= _MAX_ENTRIES:
                del _engines[next(iter(_engines))]
            _engines[cache_key] = built
            engine = built
    return engine


def ndet_cipher(
    master: bytes, rng: random.Random | None = None
) -> NonDeterministicCipher:
    """A ``nDet_Enc`` cipher over cached engines (cheap to construct)."""
    from repro.crypto.ndet import NonDeterministicCipher

    return NonDeterministicCipher(master, rng)


def det_cipher(master: bytes) -> DeterministicCipher:
    """A ``Det_Enc`` cipher over cached engines (cheap to construct)."""
    from repro.crypto.det import DeterministicCipher

    return DeterministicCipher(master)


def invalidate_key(master: bytes) -> None:
    """Drop every cached engine derived from *master* (key rotation)."""
    master = bytes(master)
    with _lock:
        for cache_key in [k for k in _engines if k[0] == master]:
            del _engines[cache_key]


def clear() -> None:
    """Empty the cache (test isolation hook)."""
    global _hits, _misses
    with _lock:
        _engines.clear()
        _hits = 0
        _misses = 0


def cache_info() -> dict[str, int]:
    """Observability: entry count and hit/miss counters."""
    with _lock:
        return {"entries": len(_engines), "hits": _hits, "misses": _misses}
