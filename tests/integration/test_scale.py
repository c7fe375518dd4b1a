"""Medium-scale smoke: hundreds of TDSs through the full stack."""

import random

import pytest

from repro.protocols import Deployment, ProtocolDriver
from repro.tds.histogram import EquiDepthHistogram
from repro.workloads import smart_meter_factory

from ..protocols.conftest import sorted_rows


GROUP_SQL = "SELECT district, COUNT(*) AS n FROM Consumer GROUP BY district"
POPULATION = 300


@pytest.fixture(scope="module")
def big_deployment():
    return Deployment.build(
        POPULATION,
        smart_meter_factory(num_districts=8),
        tables=["Power", "Consumer"],
        seed=77,
    )


def test_s_agg_at_scale(big_deployment):
    querier = big_deployment.make_querier()
    envelope = querier.make_envelope(GROUP_SQL)
    big_deployment.ssi.post_query(envelope)
    driver = ProtocolDriver(
        big_deployment.ssi,
        big_deployment.tds_list,
        big_deployment.connected_tds(0.2),
        random.Random(1), "s_agg",
    )
    driver.execute(envelope)
    rows = querier.decrypt_result(
        big_deployment.ssi.fetch_result(envelope.query_id)
    )
    assert sorted_rows(rows) == sorted_rows(
        big_deployment.reference_answer(GROUP_SQL)
    )
    assert sum(r["n"] for r in rows) == POPULATION
    # log_3.6(300) ≈ 4.5 → 4-6 rounds
    assert 3 <= driver.stats.aggregation_rounds <= 7


def test_ed_hist_at_scale(big_deployment):
    frequencies = {
        row["district"]: row["n"]
        for row in big_deployment.reference_answer(GROUP_SQL)
    }
    histogram = EquiDepthHistogram.from_distribution(frequencies, 3)
    querier = big_deployment.make_querier()
    envelope = querier.make_envelope(GROUP_SQL)
    big_deployment.ssi.post_query(envelope)
    driver = ProtocolDriver(
        big_deployment.ssi,
        big_deployment.tds_list,
        big_deployment.connected_tds(0.2),
        random.Random(2),
        histogram=histogram,
        meta="ed_hist",
    )
    driver.execute(envelope)
    rows = querier.decrypt_result(
        big_deployment.ssi.fetch_result(envelope.query_id)
    )
    assert sorted_rows(rows) == sorted_rows(
        big_deployment.reference_answer(GROUP_SQL)
    )
    assert driver.stats.aggregation_rounds == 2


def test_size_clause_at_scale(big_deployment):
    sql = "SELECT district FROM Consumer SIZE 50"
    querier = big_deployment.make_querier()
    envelope = querier.make_envelope(sql)
    big_deployment.ssi.post_query(envelope)

    driver = ProtocolDriver(
        big_deployment.ssi,
        big_deployment.tds_list,
        big_deployment.connected_tds(0.2),
        random.Random(3), "basic",
    )
    driver.execute(envelope)
    rows = querier.decrypt_result(
        big_deployment.ssi.fetch_result(envelope.query_id)
    )
    assert len(rows) == 50  # exactly the SIZE bound, not the population
    assert driver.stats.tuples_collected == 50
