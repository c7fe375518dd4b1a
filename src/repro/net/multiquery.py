"""Concurrent querier-side execution: N queries over one connection.

The fleet side already serves every live query concurrently
(:meth:`~repro.net.fleet.FleetRunner._serve_answer`); this module is the
querier-side counterpart.  :class:`MultiQueryRunner` posts a batch of
queries through one shared multiplexed :class:`QuerierClient` and awaits
their results concurrently, so the wire round trips and the fleet's
collection/aggregation phases of different queries overlap instead of
serializing.  A semaphore bounds how many queries are in flight at once
— under a server-side admission policy the client's ERR_ADMISSION
backoff handles the rest, so a runner whose concurrency exceeds its
quota degrades to the quota rather than failing.  Each in-flight query
leaves one ``await_result`` request parked at the SSI, which occupies a
slot of the connection's pipeline window until its hold expires: a
concurrency above the window is slower, not stuck.

Trust boundary: client role.  Decryption happens in the caller-supplied
:class:`~repro.protocols.base.Querier`, never here against the SSI.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.exceptions import ProtocolError
from repro.net.client import QuerierClient
from repro.net.frames import QueryMeta
from repro.protocols.base import Querier


@dataclass(frozen=True)
class QuerySpec:
    """One query to run: SQL (SIZE clause and all) plus scheduling meta.

    ``protocol`` and ``params`` become the posted
    :class:`~repro.net.frames.QueryMeta` — fleet-mode scheduling shape,
    not query content."""

    sql: str
    protocol: str = "s_agg"
    params: dict[str, float] = field(default_factory=dict)

    def meta(self) -> QueryMeta:
        return QueryMeta(self.protocol, dict(self.params))


@dataclass
class QueryOutcome:
    """One completed query: its decrypted rows and end-to-end latency
    (post → published result fetched)."""

    query_id: str
    sql: str
    rows: list[dict[str, Any]]
    seconds: float


@dataclass
class MultiQueryStats:
    """Aggregate shape of one batch run, BENCH_multiq's vocabulary."""

    outcomes: list[QueryOutcome]
    wall_seconds: float

    @property
    def queries_per_s(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return len(self.outcomes) / self.wall_seconds

    def _percentile(self, q: float) -> float:
        latencies = sorted(outcome.seconds for outcome in self.outcomes)
        if not latencies:
            return 0.0
        rank = max(0, min(len(latencies) - 1, round(q * (len(latencies) - 1))))
        return latencies[rank]

    @property
    def p50_s(self) -> float:
        return self._percentile(0.50)

    @property
    def p95_s(self) -> float:
        return self._percentile(0.95)


class MultiQueryRunner:
    """Run batches of queries concurrently against one SSI endpoint.

    ``poll_interval`` is handed to :meth:`QuerierClient.wait_result`:
    the pause before re-arming after a failed exchange, nothing else."""

    def __init__(
        self,
        querier: Querier,
        client: QuerierClient,
        *,
        concurrency: int = 4,
        poll_interval: float = 0.02,
        result_timeout: float = 60.0,
        id_factory: Callable[[], str] | None = None,
    ) -> None:
        if concurrency < 1:
            raise ProtocolError("concurrency must be >= 1")
        self.querier = querier
        self.client = client
        self.concurrency = concurrency
        self.poll_interval = poll_interval
        self.result_timeout = result_timeout
        #: overrides the querier's process-unique query ids — independent
        #: CLI processes hitting one served SSI need globally unique ones
        self.id_factory = id_factory

    async def run(self, specs: Sequence[QuerySpec]) -> MultiQueryStats:
        """Post every spec and await every result; queries overlap up to
        ``concurrency`` at a time.  Outcomes keep spec order."""
        semaphore = asyncio.Semaphore(self.concurrency)

        async def one(spec: QuerySpec) -> QueryOutcome:
            async with semaphore:
                query_id = self.id_factory() if self.id_factory else None
                envelope = self.querier.make_envelope(
                    spec.sql, query_id=query_id
                )
                started = time.perf_counter()
                await self.client.post_query(envelope, meta=spec.meta())
                result = await self.client.wait_result(
                    envelope.query_id,
                    poll_interval=self.poll_interval,
                    timeout=self.result_timeout,
                )
                # bulk decrypt is synchronous CPU work: off the loop, so
                # a big result does not stall the other in-flight queries
                rows = await asyncio.to_thread(
                    self.querier.decrypt_result, result
                )
                return QueryOutcome(
                    query_id=envelope.query_id,
                    sql=spec.sql,
                    rows=rows,
                    seconds=time.perf_counter() - started,
                )

        started = time.perf_counter()
        outcomes = await asyncio.gather(*(one(spec) for spec in specs))
        return MultiQueryStats(
            outcomes=list(outcomes),
            wall_seconds=time.perf_counter() - started,
        )
