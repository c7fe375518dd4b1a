"""S_Agg: the Secure Aggregation protocol (§4.2, Fig. 4).

Collection uses pure nDet_Enc, so the SSI has **no** routing information:
tuples of the same group are randomly scattered across partitions.  The
aggregation phase is therefore *iterative*: each round, connected TDSs
download random partitions of encrypted tuples/partials and upload one
partial aggregation each; the number of items shrinks by the reduction
factor α every round until a single partial holds the final aggregation
(``n = log_α(Nt/G)`` rounds).  The cost model shows α ≈ 3.6 minimizes the
response time (§6.1.1); the default uses that optimum.

Security: every byte the SSI sees is nDet_Enc ciphertext — the most
confidential of the proposed protocols (Fig. 8).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.exceptions import ProtocolError
from repro.protocols.base import ProtocolDriver

if TYPE_CHECKING:
    from repro.protocols.verification import SpotChecker

#: optimal reduction factor derived in §6.1.1 (dTQ/dα = 0 → α ≈ 3.6);
#: partitions must hold at least 2 items for the iteration to converge.
ALPHA_OPTIMAL = 3.6


class SAggProtocol(ProtocolDriver):
    """Iterative secure aggregation."""

    name = "s_agg"

    def __init__(
        self,
        *args: Any,
        alpha: float = ALPHA_OPTIMAL,
        spot_checker: "SpotChecker | None" = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        if alpha < 2:
            raise ProtocolError("the reduction factor alpha must be >= 2")
        self.alpha = alpha
        self.spot_checker = spot_checker

    def params(self) -> dict[str, float]:
        return {"alpha": self.alpha}
