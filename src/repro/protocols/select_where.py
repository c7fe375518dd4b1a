"""Basic querying protocol for Select-From-Where statements (§3.2).

Collection phase: every connected TDS downloads the query, evaluates it
locally and pushes nDet-encrypted result tuples — or a dummy tuple when
nothing matches or access is denied, so the SSI cannot learn the query
selectivity.  Collection stops when the SIZE clause is satisfied.

Filtering phase: the SSI partitions the Covering Result into opaque
chunks; connected TDSs (possibly different ones) decrypt, drop the
dummies and re-encrypt the true tuples under k1 for the querier.
"""

from __future__ import annotations

from typing import Any

from repro.exceptions import ProtocolError
from repro.protocols.base import ProtocolDriver


class SelectWhereProtocol(ProtocolDriver):
    """The basic (non-aggregate) protocol."""

    name = "basic"

    def __init__(self, *args: Any, partition_size: int = 64, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        if partition_size < 1:
            raise ProtocolError("partition_size must be >= 1")
        self.partition_size = partition_size

    def params(self) -> dict[str, float]:
        return {"partition_size": self.partition_size}
