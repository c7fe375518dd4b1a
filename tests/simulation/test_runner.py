"""End-to-end simulated protocol runs: correctness + timing together."""

import random

import pytest

from repro.protocols import Deployment
from repro.simulation import duty_cycle, run_simulated
from repro.tds.histogram import EquiDepthHistogram
from repro.workloads import smart_meter_factory


@pytest.fixture
def deployment():
    return Deployment.build(
        12,
        smart_meter_factory(num_districts=3),
        tables=["Power", "Consumer"],
        seed=9,
    )


SQL = "SELECT district, COUNT(*) AS n FROM Consumer GROUP BY district"


class TestSimulatedRuns:
    def test_s_agg_simulated(self, deployment):
        run = run_simulated(deployment, "s_agg", SQL, seed=2)
        reference = sorted(
            deployment.reference_answer(SQL), key=lambda r: r["district"]
        )
        assert sorted(run.rows, key=lambda r: r["district"]) == reference
        assert run.report.t_q > 0
        assert run.report.collection_duration > 0
        assert run.report.participants() >= 12

    def test_basic_simulated(self, deployment):
        sql = "SELECT district FROM Consumer WHERE cid < 5"
        run = run_simulated(deployment, "basic", sql, seed=3)
        assert len(run.rows) == 5
        assert run.report.t_q == 0.0  # no aggregation phase
        assert run.report.filtering_duration > 0

    def test_ed_hist_simulated(self, deployment):
        freq = {
            row["district"]: row["n"] for row in deployment.reference_answer(SQL)
        }
        hist = EquiDepthHistogram.from_distribution(freq, 2)
        run = run_simulated(deployment, "ed_hist", SQL, seed=4, histogram=hist)
        reference = sorted(
            deployment.reference_answer(SQL), key=lambda r: r["district"]
        )
        assert sorted(run.rows, key=lambda r: r["district"]) == reference

    def test_intermittent_connectivity_stretches_time(self, deployment):
        always = run_simulated(deployment, "s_agg", SQL, seed=5)

        deployment2 = Deployment.build(
            12,
            smart_meter_factory(num_districts=3),
            tables=["Power", "Consumer"],
            seed=9,
        )
        schedule = duty_cycle(
            [tds.tds_id for tds in deployment2.tds_list],
            random.Random(1),
            horizon=36000,
            duty=0.05,
            session_length=60,
        )
        intermittent = run_simulated(
            deployment2, "s_agg", SQL, schedule=schedule, seed=5
        )
        assert intermittent.report.total_duration > always.report.total_duration
        # correctness is unaffected by connectivity
        assert sorted(
            intermittent.rows, key=lambda r: r["district"]
        ) == sorted(always.rows, key=lambda r: r["district"])

    def test_stats_and_report_consistent(self, deployment):
        run = run_simulated(deployment, "s_agg", SQL, seed=6)
        assert run.stats.tuples_collected == 12
        assert set(run.report.busy_time) == run.stats.participants
