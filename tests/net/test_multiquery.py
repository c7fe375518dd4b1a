"""MultiQueryRunner: N concurrent queries over one multiplexed client.

Overlap must never change answers: a batch of concurrent queries
returns exactly what serial in-process drivers return, including when
the batch mixes protocols, and when the runner's concurrency exceeds
the server's admission quota (the client's ERR_ADMISSION backoff
degrades it to the quota instead of failing queries).
"""

import asyncio
import random

import pytest

from repro.net.client import QuerierClient, RetryPolicy
from repro.net.fleet import FleetRunner
from repro.net.multiquery import MultiQueryRunner, QuerySpec
from repro.net.server import SSIDispatcher, SSIServer
from repro.net.transport import TCPTransport
from repro.ssi.admission import AdmissionPolicy

from .conftest import (
    GROUP_SQL,
    build_deployment,
    make_histogram,
    run_async,
    run_driver_inproc,
    sorted_rows,
)


async def run_batch(
    specs,
    *,
    concurrency=4,
    num_tds=8,
    admission=None,
    retry_policy=None,
    partition_timeout=0.5,
):
    """serve + fleet + one MultiQueryRunner batch over localhost TCP.

    Returns (stats, per-outcome sorted rows in spec order)."""
    dep = build_deployment(num_tds)
    dispatcher = SSIDispatcher(
        dep.ssi, partition_timeout=partition_timeout, admission=admission
    )
    server = SSIServer(dispatcher)
    await server.start()
    fleet = FleetRunner(
        dep.tds_list,
        lambda: TCPTransport("127.0.0.1", server.port),
        histogram=make_histogram(dep),
        policy=RetryPolicy(backoff_base=0.01),
        poll_interval=0.01,
        rng=random.Random(5),
    )
    fleet_task = asyncio.create_task(fleet.run(until_queries_done=len(specs)))
    try:
        querier = dep.make_querier()
        client = QuerierClient(
            TCPTransport("127.0.0.1", server.port, window=16),
            retry_policy or RetryPolicy(backoff_base=0.01),
            rng=random.Random(6),
        )
        runner = MultiQueryRunner(
            querier,
            client,
            concurrency=concurrency,
            poll_interval=0.01,
            result_timeout=45.0,
        )
        try:
            stats = await runner.run(specs)
        finally:
            await client.close()
        await fleet_task
        return stats, [sorted_rows(o.rows) for o in stats.outcomes]
    finally:
        fleet.stop()
        await server.close()


class TestConcurrentBatch:
    def test_four_concurrent_queries_match_serial_driver(self):
        specs = [QuerySpec(GROUP_SQL, "s_agg") for _ in range(4)]
        stats, rows = run_async(run_batch(specs, concurrency=4))
        reference = run_driver_inproc("s_agg", GROUP_SQL)
        assert len(stats.outcomes) == 4
        for outcome_rows in rows:
            assert outcome_rows == reference
        # distinct queries, not one query fetched four times
        assert len({o.query_id for o in stats.outcomes}) == 4
        assert stats.queries_per_s > 0
        assert stats.p50_s <= stats.p95_s

    def test_mixed_protocol_batch(self):
        specs = [
            QuerySpec(GROUP_SQL, "s_agg"),
            QuerySpec(GROUP_SQL, "ed_hist"),
            QuerySpec(GROUP_SQL, "s_agg"),
            QuerySpec(GROUP_SQL, "ed_hist"),
        ]
        __, rows = run_async(run_batch(specs, concurrency=4))
        sagg_ref = run_driver_inproc("s_agg", GROUP_SQL)
        hist_ref = run_driver_inproc(
            "ed_hist",
            GROUP_SQL,
            histogram=make_histogram(build_deployment()),
        )
        assert rows[0] == sagg_ref
        assert rows[2] == sagg_ref
        assert rows[1] == hist_ref
        assert rows[3] == hist_ref

    def test_outcomes_keep_spec_order(self):
        specs = [QuerySpec(GROUP_SQL, "s_agg") for _ in range(3)]
        stats, __ = run_async(run_batch(specs, concurrency=3))
        assert [o.sql for o in stats.outcomes] == [s.sql for s in specs]


class TestUnderAdmission:
    def test_concurrency_above_quota_degrades_not_fails(self):
        """concurrency=4 against max_active_queries=2: the two posts
        over quota are bounced with ERR_ADMISSION, the client backs off
        and re-posts once earlier queries publish — every query still
        completes with the right answer."""

        specs = [QuerySpec(GROUP_SQL, "s_agg") for _ in range(4)]
        stats, rows = run_async(
            run_batch(
                specs,
                concurrency=4,
                admission=AdmissionPolicy(
                    max_active_queries=2, retry_after=0.05
                ),
                retry_policy=RetryPolicy(max_retries=100, backoff_base=0.01),
            )
        )
        reference = run_driver_inproc("s_agg", GROUP_SQL)
        assert len(stats.outcomes) == 4
        for outcome_rows in rows:
            assert outcome_rows == reference
