"""What the *tagged* protocols share: two aggregation steps, two knobs.

The noise-based protocols (§4.3) and ED_Hist (§4.4) differ only in how
collection tags tuples (Det_Enc of the grouping value + fakes, vs. keyed
bucket hash).  From there both follow the same two-step aggregation:

1. the SSI groups same-tag tuples into partitions; TDSs fold each
   partition and return per-group partials tagged ``Det_Enc(group)``;
2. the SSI groups same-tag partials; TDSs merge each group to one final
   partial.

Unlike S_Agg the convergence is guaranteed in two steps and every group is
processed in parallel — which is exactly why these protocols dominate the
parallelism/elasticity axes of Fig. 11.
"""

from __future__ import annotations

from typing import Any

from repro.protocols.base import ProtocolDriver


class TaggedAggregationProtocol(ProtocolDriver):
    """Base class: collection is protocol-specific, the row shared."""

    def __init__(
        self,
        *args: Any,
        first_step_partition_size: int | None = 64,
        filter_partition_size: int = 64,
        **kwargs: Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.first_step_partition_size = first_step_partition_size
        self.filter_partition_size = filter_partition_size

    def params(self) -> dict[str, float]:
        return {
            # None leaves a tag group unsplit, which the table spells 0
            "first_step_partition_size": self.first_step_partition_size or 0,
            "filter_partition_size": self.filter_partition_size,
        }
