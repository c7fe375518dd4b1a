"""Concurrent queries, personal queryboxes, and SSI isolation."""

import random

import pytest

from repro.net.frames import QueryMeta
from repro.protocols import Deployment, ProtocolDriver
from repro.tds.histogram import EquiDepthHistogram
from repro.workloads import smart_meter_factory

from ..protocols.conftest import sorted_rows


GROUP_SQL = "SELECT district, COUNT(*) AS n FROM Consumer GROUP BY district"
SFW_SQL = "SELECT district FROM Consumer WHERE cid < 4"


@pytest.fixture
def deployment():
    return Deployment.build(
        12, smart_meter_factory(num_districts=3),
        tables=["Power", "Consumer"], seed=17,
    )


class TestConcurrentQueries:
    def test_two_queries_isolated(self, deployment):
        """Two queries posted before either executes: per-query storage on
        the SSI must not bleed between them."""
        querier = deployment.make_querier()
        env_a = querier.make_envelope(GROUP_SQL)
        env_b = querier.make_envelope(SFW_SQL)
        deployment.ssi.post_query(env_a)
        deployment.ssi.post_query(env_b)

        driver_a = ProtocolDriver(
            deployment.ssi, deployment.tds_list, deployment.tds_list,
            random.Random(0), "s_agg",
        )
        driver_b = ProtocolDriver(
            deployment.ssi, deployment.tds_list, deployment.tds_list,
            random.Random(1), "basic",
        )
        # interleave: collect for both, then finish both
        driver_a.collect(env_a)
        driver_b.collect(env_b)
        driver_a.process(env_a)
        driver_b.process(env_b)

        rows_a = querier.decrypt_result(deployment.ssi.fetch_result(env_a.query_id))
        rows_b = querier.decrypt_result(deployment.ssi.fetch_result(env_b.query_id))
        assert sorted_rows(rows_a) == sorted_rows(deployment.reference_answer(GROUP_SQL))
        assert sorted_rows(rows_b) == sorted_rows(deployment.reference_answer(SFW_SQL))

    def test_same_query_text_different_ids(self, deployment):
        querier = deployment.make_querier()
        env1 = querier.make_envelope(GROUP_SQL)
        env2 = querier.make_envelope(GROUP_SQL)
        deployment.ssi.post_query(env1)
        deployment.ssi.post_query(env2)
        for env, seed in ((env1, 3), (env2, 4)):
            ProtocolDriver(
                deployment.ssi, deployment.tds_list, deployment.tds_list,
                random.Random(seed), "s_agg",
            ).execute(env)
        rows1 = querier.decrypt_result(deployment.ssi.fetch_result(env1.query_id))
        rows2 = querier.decrypt_result(deployment.ssi.fetch_result(env2.query_id))
        assert sorted_rows(rows1) == sorted_rows(rows2)

    def test_different_protocols_same_answer(self, deployment):
        querier = deployment.make_querier()
        reference = sorted_rows(deployment.reference_answer(GROUP_SQL))
        histogram = EquiDepthHistogram.from_distribution(
            {f"district-{i:03d}": 1 for i in range(3)}, 1
        )
        for meta, seed in [("s_agg", 5), (QueryMeta("rnf_noise", {"nf": 2}), 6)]:
            env = querier.make_envelope(GROUP_SQL)
            deployment.ssi.post_query(env)
            ProtocolDriver(
                deployment.ssi, deployment.tds_list, deployment.tds_list,
                random.Random(seed), meta, histogram=histogram,
            ).execute(env)
            rows = querier.decrypt_result(deployment.ssi.fetch_result(env.query_id))
            assert sorted_rows(rows) == reference


class TestPersonalQuerybox:
    def test_identifying_query_to_one_tds(self, deployment):
        """The doctor-queries-her-patient flow: a query posted to one
        personal querybox, answered by that TDS only (§3.1)."""
        querier = deployment.make_querier()
        envelope = querier.make_envelope(
            "SELECT cid, district FROM Consumer"
        )
        target = deployment.tds_list[5]
        deployment.ssi.post_query(envelope, tds_id=target.tds_id)

        # the query's record names the target's box; the crowd's is empty
        assert deployment.ssi.query(envelope.query_id).tds_id == target.tds_id
        assert deployment.ssi.active_queries() == []

        driver = ProtocolDriver(
            deployment.ssi,
            collectors=[target],
            workers=[deployment.tds_list[0]],
            rng=random.Random(7),
            meta="basic",
        )
        driver.execute(envelope)
        rows = querier.decrypt_result(deployment.ssi.fetch_result(envelope.query_id))
        assert rows == [{"cid": 5, "district": rows[0]["district"]}]

    def test_global_box_unaffected(self, deployment):
        querier = deployment.make_querier()
        envelope = querier.make_envelope(SFW_SQL)
        deployment.ssi.post_query(envelope, tds_id="tds-3")
        assert deployment.ssi.active_queries() == []
