"""Sharded multiprocess fleet: spec derivation, stat merging, builder
resolution, and a two-process end-to-end run against one SSI."""

import asyncio
import random

import pytest

from repro.exceptions import ProtocolError
from repro.net.client import QuerierClient
from repro.net.fleet import (
    FleetStats,
    ShardedFleetRunner,
    ShardSpec,
    resolve_builder,
    run_shard,
)
from repro.net.frames import QueryMeta
from repro.net.server import SSIDispatcher, SSIServer
from repro.net.transport import TCPTransport
from repro.protocols import Deployment
from repro.workloads.smartmeter import smart_meter_factory

from .conftest import GROUP_SQL, run_async, sorted_rows

BUILDER = "repro.cli:fleet_shard_builder"
BUILDER_ARGS = (4, 2, 11, 2)  # tds, districts, seed, buckets


def make_runner(port=7464, **kwargs):
    kwargs.setdefault("shards", 2)
    return ShardedFleetRunner(
        "127.0.0.1", port, BUILDER, BUILDER_ARGS, **kwargs
    )


class TestShardSpecs:
    def test_specs_are_deterministic_and_distinct(self):
        first = make_runner(seed=7).specs(until_queries_done=3)
        again = make_runner(seed=7).specs(until_queries_done=3)
        assert first == again
        assert len(first) == 2
        assert first[0].seed != first[1].seed  # per-shard rng seeds differ
        assert {s.shard_index for s in first} == {0, 1}
        assert all(s.shard_count == 2 for s in first)
        assert all(s.until_queries_done == 3 for s in first)
        other = make_runner(seed=8).specs()
        assert other[0].seed != first[0].seed

    def test_knobs_propagate_to_specs(self):
        spec = make_runner(
            batch_size=32, window=4, concurrency=3, poll_interval=0.5
        ).specs()[0]
        assert spec.batch_size == 32
        assert spec.window == 4
        assert spec.concurrency == 3
        assert spec.poll_interval == 0.5
        assert spec.builder == BUILDER
        assert spec.builder_args == BUILDER_ARGS

    def test_shard_count_validation(self):
        with pytest.raises(ProtocolError, match="shard count"):
            make_runner(shards=0)
        assert make_runner(shards=None).shards >= 1  # defaults to cpu count

    def test_bad_builders_fail_fast(self):
        with pytest.raises(ProtocolError, match="module:function"):
            resolve_builder("no-colon")
        with pytest.raises(ProtocolError, match="cannot resolve"):
            resolve_builder("repro.not_a_module:thing")
        with pytest.raises(ProtocolError, match="cannot resolve"):
            resolve_builder("repro.cli:not_a_function")
        with pytest.raises(ProtocolError, match="not callable"):
            resolve_builder("repro.cli:PROTOCOL_CHOICES")
        with pytest.raises(ProtocolError):
            ShardedFleetRunner("127.0.0.1", 1, "nope", shards=1)


class TestMerge:
    def test_merge_sums_counters_and_unions_sets(self):
        merged = ShardedFleetRunner.merge(
            [
                {
                    "contributions": 2,
                    "tuples_submitted": 5,
                    "partitions_processed": 1,
                    "injected_faults": 0,
                    "queries_completed": ["q1"],
                    "participants": ["tds-0", "tds-2"],
                },
                {
                    "contributions": 3,
                    "tuples_submitted": 7,
                    "partitions_processed": 2,
                    "injected_faults": 1,
                    "queries_completed": ["q1", "q2"],
                    "participants": ["tds-1"],
                },
            ]
        )
        assert merged.contributions == 5
        assert merged.tuples_submitted == 12
        assert merged.partitions_processed == 3
        assert merged.injected_faults == 1
        assert merged.queries_completed == {"q1", "q2"}
        assert merged.participants == {"tds-0", "tds-1", "tds-2"}

    def test_merge_of_nothing_is_zero(self):
        assert ShardedFleetRunner.merge([]) == FleetStats()


class TestRunShard:
    def test_empty_shard_returns_zero_stats_without_network(self):
        spec = ShardSpec(
            host="127.0.0.1",
            port=1,  # nothing listens here; an empty shard must not care
            shard_index=1,
            shard_count=2,
            builder=BUILDER,
            builder_args=(1, 2, 11, 2),  # population of one TDS
            seed=0,
        )
        stats = run_shard(spec)
        assert stats["contributions"] == 0
        assert stats["participants"] == []


class TestShardedEndToEnd:
    def test_two_shard_processes_complete_a_sized_query(self):
        """Two spawn workers, each rebuilding the deployment from the
        shared seed and serving half the population, drive one SIZE-n
        query to completion against a single SSI."""
        tds, districts, seed, buckets = BUILDER_ARGS
        dep = Deployment.build(
            tds,
            smart_meter_factory(num_districts=districts),
            tables=["Power", "Consumer"],
            seed=seed,
        )
        # each TDS holds one Consumer row, so SIZE == population closes
        # the collection exactly when every shard has contributed
        sql = GROUP_SQL + f" SIZE {tds} TUPLES"

        async def run():
            dispatcher = SSIDispatcher(dep.ssi, partition_timeout=1.0)
            server = SSIServer(dispatcher)
            await server.start()
            runner = make_runner(
                port=server.port,
                seed=99,
                batch_size=16,
                window=8,
                poll_interval=0.01,
            )
            fleet_task = asyncio.create_task(runner.run(until_queries_done=1))
            try:
                querier = dep.make_querier()
                envelope = querier.make_envelope(sql)
                qclient = QuerierClient(TCPTransport("127.0.0.1", server.port))
                try:
                    await qclient.post_query(
                        envelope,
                        meta=QueryMeta("s_agg", {"partition_timeout": 1.0}),
                    )
                    result = await qclient.wait_result(
                        envelope.query_id, poll_interval=0.05, timeout=90.0
                    )
                finally:
                    await qclient.close()
                stats = await fleet_task
                rows = sorted_rows(querier.decrypt_result(result))
                assert stats.queries_completed == {envelope.query_id}
                assert stats.tuples_submitted == tds
                assert len(stats.participants) == tds  # both shards served
                return rows
            finally:
                await server.close()

        rows = run_async(run(), timeout=120.0)
        reference = sorted_rows(
            {str(k): v for k, v in row.items()}
            for row in dep_reference_rows()
        )
        assert rows == reference


def dep_reference_rows():
    tds, districts, seed, __ = BUILDER_ARGS
    dep = Deployment.build(
        tds,
        smart_meter_factory(num_districts=districts),
        tables=["Power", "Consumer"],
        seed=seed,
    )
    return dep.reference_answer(GROUP_SQL)
