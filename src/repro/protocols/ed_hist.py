"""ED_Hist: the equi-depth histogram protocol (§4.4, Fig. 6).

Instead of *adding* noise, ED_Hist reshapes what the SSI sees: TDSs map
their grouping value to a nearly equi-depth bucket (from a previously
discovered distribution) and tag tuples with the keyed hash of the bucket
id.  The SSI observes a nearly uniform tag distribution and learns nothing
about the true distribution; no fake tuples are ever produced.

Aggregation takes exactly two steps (one partition may hold several
groups — the collision factor h — hence per-group partials after step 1,
merged per group in step 2).
"""

from __future__ import annotations

from typing import Any

from repro.exceptions import ConfigurationError
from repro.protocols.tagged import TaggedAggregationProtocol
from repro.tds.histogram import EquiDepthHistogram


class EDHistProtocol(TaggedAggregationProtocol):
    """Equi-depth histogram-based aggregation."""

    name = "ed_hist"

    def __init__(
        self, *args: Any, histogram: EquiDepthHistogram, **kwargs: Any
    ) -> None:
        super().__init__(*args, **kwargs)
        if histogram.bucket_count() < 1:
            raise ConfigurationError("histogram must have at least one bucket")
        self.histogram = histogram

    def device_knowledge(self) -> dict[str, Any]:
        return {"histogram": self.histogram}
