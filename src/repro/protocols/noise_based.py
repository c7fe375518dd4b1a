"""Noise-based protocols: Rnf_Noise and C_Noise (§4.3, Fig. 5).

Collection applies ``Det_Enc`` to the grouping attributes (so the SSI can
assemble same-group tuples) and hides the revealed distribution with fake
tuples:

* **Rnf_Noise** — nf random fakes per true tuple.  With nf too small the
  mixed distribution still leaks highly skewed groups; the paper plots
  nf = 2 and nf = 1000.
* **C_Noise** — one fake per other domain value (nd − 1 fakes): the mixed
  distribution is flat by construction, at the price of nd× the tuples.

Fakes are eliminated inside TDSs during the aggregation phase thanks to
their identified characteristics (the ``kind`` field, invisible to SSI).
"""

from __future__ import annotations

import random
from typing import Any, Sequence

from repro.exceptions import ConfigurationError
from repro.protocols.tagged import TaggedAggregationProtocol
from repro.tds.noise import ComplementaryNoise, RandomNoise


class RnfNoiseProtocol(TaggedAggregationProtocol):
    """Random (white) noise: nf fakes per true tuple."""

    name = "rnf_noise"

    def __init__(
        self, *args: Any, domain: Sequence[Any], nf: int = 2, **kwargs: Any
    ) -> None:
        super().__init__(*args, **kwargs)
        if not domain:
            raise ConfigurationError("Rnf_Noise needs the grouping domain to "
                                     "sample fake values from")
        self.nf = nf
        self.domain = list(domain)

    def device_knowledge(self) -> dict[str, Any]:
        # each device draws its fakes from its own stream
        rng = random.Random(self.rng.getrandbits(64))
        return {"noise": RandomNoise(self.domain, self.nf, rng)}


class CNoiseProtocol(TaggedAggregationProtocol):
    """Complementary-domain noise: a flat mixed distribution by design.

    Requires the domain (cardinality nd); when unknown, run
    :func:`repro.protocols.discovery.discover_domain` first — exactly the
    "cardinality discovering algorithm" of §4.3.
    """

    name = "c_noise"

    def __init__(self, *args: Any, domain: Sequence[Any], **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        if not domain:
            raise ConfigurationError("C_Noise needs the full grouping domain")
        self.domain = list(domain)

    def device_knowledge(self) -> dict[str, Any]:
        return {"noise": ComplementaryNoise(self.domain)}
