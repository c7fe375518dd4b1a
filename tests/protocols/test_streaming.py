"""Windowed (streaming) query tests."""

import pytest

from repro.exceptions import ConfigurationError
from repro.protocols import Deployment, ProtocolDriver
from repro.protocols.streaming import WindowedQueryRunner, append_feed
from repro.sql.schema import Database, schema

from .conftest import sorted_rows


SQL = "SELECT district, AVG(cons) AS a, COUNT(*) AS n FROM Power GROUP BY district"


def meter_factory():
    """Meters start empty; readings arrive through the feed."""

    def factory(index, rng):
        db = Database()
        db.create_table(schema("Power", district="TEXT", cons="REAL"))
        return db

    return factory


def reading_feed():
    districts = ["north", "south"]

    def row(window_index, tds_index, rng):
        return {
            "district": districts[tds_index % 2],
            "cons": float(100 * (window_index + 1) + tds_index),
        }

    return append_feed("Power", row)


def sagg_factory(deployment, rng):
    return ProtocolDriver(
        deployment.ssi, deployment.tds_list, deployment.tds_list, rng, meta="s_agg"
    )


@pytest.fixture
def runner():
    deployment = Deployment.build(8, meter_factory(), tables=["Power"], seed=3)
    return WindowedQueryRunner(
        deployment, sagg_factory, SQL, data_feed=reading_feed(), seed=5
    ), deployment


class TestWindows:
    def test_each_window_matches_reference(self, runner):
        windowed, deployment = runner
        for expected_rows_per_tds in (1, 2, 3):
            result = windowed.run_window()
            reference = deployment.reference_answer(SQL)
            assert sorted_rows(
                [{k: round(v, 6) if isinstance(v, float) else v for k, v in r.items()}
                 for r in result.rows]
            ) == sorted_rows(
                [{k: round(v, 6) if isinstance(v, float) else v for k, v in r.items()}
                 for r in reference]
            )
            # the feed appended one reading per TDS per window
            total = sum(r["n"] for r in result.rows)
            assert total == 8 * expected_rows_per_tds

    def test_window_indices_increment(self, runner):
        windowed, __ = runner
        results = windowed.run(3)
        assert [r.window_index for r in results] == [0, 1, 2]

    def test_averages_move_with_new_data(self, runner):
        """Later windows include later (larger) readings, so the running
        AVG grows — the stream is really evolving."""
        windowed, __ = runner
        first = windowed.run_window()
        second = windowed.run_window()
        avg_first = {r["district"]: r["a"] for r in first.rows}
        avg_second = {r["district"]: r["a"] for r in second.rows}
        for district in avg_first:
            assert avg_second[district] > avg_first[district]

    def test_each_window_fresh_query_id(self, runner):
        windowed, deployment = runner
        windowed.run(2)
        assert len(deployment.ssi._storage) == 2

    def test_invalid_window_count(self, runner):
        windowed, __ = runner
        with pytest.raises(ConfigurationError):
            windowed.run(0)

    def test_runner_without_feed(self):
        """Static data: every window returns the same answer."""

        def factory(index, rng):
            db = Database()
            t = db.create_table(schema("Power", district="TEXT", cons="REAL"))
            t.insert({"district": "north", "cons": 10.0})
            return db

        deployment = Deployment.build(4, factory, tables=["Power"], seed=1)
        windowed = WindowedQueryRunner(deployment, sagg_factory, SQL, seed=2)
        first, second = windowed.run(2)
        assert sorted_rows(first.rows) == sorted_rows(second.rows)
