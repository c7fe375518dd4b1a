"""Fake-tuple generation for the noise-based protocols (§4.3).

Two strategies:

* :class:`RandomNoise` (``Rnf_Noise``) — per true tuple, ``nf`` fake tuples
  whose grouping value is drawn at random from the domain.  "Because the
  fake tuples are randomly generated, the distribution of mixed values may
  not be different enough from that of true values ... a large quantity of
  fake tuples (nf ≫ 1) must be injected to make the fake distribution
  dominate the true one."
* :class:`ComplementaryNoise` (``C_Noise``) — per true tuple, one fake
  tuple for *every other* domain value (nd−1 fakes), so the mixed
  distribution is flat by construction.

Fake tuples carry "identified characteristics" letting a decrypting TDS
filter them out: here, the ``kind`` field of
:class:`~repro.core.messages.TupleContent` — invisible to the SSI because
it only ever appears inside nDet_Enc payloads.
"""

from __future__ import annotations

import random
from typing import Any, Sequence

from repro.core.messages import TupleContent
from repro.exceptions import ConfigurationError


class NoiseStrategy:
    """Interface: produce fake tuple contents for one true grouping value."""

    def fake_tuples(self, true_value: Any) -> list[tuple[Any, TupleContent]]:
        """Return ``(grouping_value, content)`` pairs for the fakes to emit
        alongside one true tuple with grouping value *true_value*."""
        raise NotImplementedError

    def expansion_factor(self) -> int:
        """Total tuples emitted per true tuple (1 + number of fakes)."""
        raise NotImplementedError


class RandomNoise(NoiseStrategy):
    """``Rnf_Noise``: nf random fakes per true tuple."""

    def __init__(self, domain: Sequence[Any], nf: int, rng: random.Random) -> None:
        if nf < 0:
            raise ConfigurationError("nf must be >= 0")
        if not domain:
            raise ConfigurationError("noise domain must not be empty")
        self.domain = list(domain)
        self.nf = nf
        self._rng = rng

    def fake_tuples(self, true_value: Any) -> list[tuple[Any, TupleContent]]:
        fakes = []
        for __ in range(self.nf):
            value = self._rng.choice(self.domain)
            fakes.append((value, TupleContent(TupleContent.KIND_FAKE)))
        return fakes

    def expansion_factor(self) -> int:
        return self.nf + 1


class ComplementaryNoise(NoiseStrategy):
    """``C_Noise``: one fake per *other* domain value (nd−1 fakes).

    Requires prior knowledge of the domain cardinality; "if the domain
    cardinality is not readily available, a cardinality discovering
    algorithm must be launched beforehand" (§4.3) — the domain is the
    ``values()`` of :func:`repro.protocols.discovery.build_histogram`.
    """

    def __init__(self, domain: Sequence[Any]) -> None:
        if not domain:
            raise ConfigurationError("noise domain must not be empty")
        self.domain = list(domain)

    def fake_tuples(self, true_value: Any) -> list[tuple[Any, TupleContent]]:
        return [
            (value, TupleContent(TupleContent.KIND_FAKE))
            for value in self.domain
            if value != true_value
        ]

    def expansion_factor(self) -> int:
        return len(self.domain)
