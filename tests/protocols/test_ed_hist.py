"""ED_Hist protocol tests (§4.4)."""

import pytest

from repro.protocols import build_histogram
from repro.tds.histogram import EquiDepthHistogram

from .conftest import run_protocol, sorted_rows


GROUP_SQL = "SELECT district, COUNT(*) AS n FROM Consumer GROUP BY district"


def make_histogram(deployment, num_buckets):
    """Histogram over the composite group key ((district,) tuples)."""
    freq = {}
    for row in deployment.reference_answer(GROUP_SQL):
        freq[row["district"]] = row["n"]
    return EquiDepthHistogram.from_distribution(freq, num_buckets)


class TestCorrectness:
    @pytest.mark.parametrize("num_buckets", [1, 2, 4])
    def test_matches_reference_at_any_collision_factor(self, deployment, num_buckets):
        hist = make_histogram(deployment, num_buckets)
        rows, __ = run_protocol(
            deployment, "ed_hist", GROUP_SQL, histogram=hist
        )
        assert rows == sorted_rows(deployment.reference_answer(GROUP_SQL))

    def test_join_avg_query(self, deployment):
        sql = (
            "SELECT C.district, AVG(P.cons) AS a FROM Power P, Consumer C "
            "WHERE C.cid = P.cid GROUP BY C.district"
        )
        freq = {r["district"]: 1 for r in deployment.reference_answer(GROUP_SQL)}
        hist = EquiDepthHistogram.from_distribution(freq, 2)
        rows, __ = run_protocol(deployment, "ed_hist", sql, histogram=hist)
        assert rows == sorted_rows(deployment.reference_answer(sql))

    def test_having(self, deployment):
        sql = GROUP_SQL + " HAVING COUNT(*) > 3"
        hist = make_histogram(deployment, 2)
        rows, __ = run_protocol(deployment, "ed_hist", sql, histogram=hist)
        assert rows == sorted_rows(deployment.reference_answer(sql))

    def test_two_aggregation_rounds_exactly(self, deployment):
        """ED_Hist converges in exactly two steps (first + second
        aggregation phases, Fig. 6) — never iterative like S_Agg."""
        hist = make_histogram(deployment, 2)
        __, driver = run_protocol(
            deployment, "ed_hist", GROUP_SQL, histogram=hist
        )
        assert driver.stats.aggregation_rounds == 2

    def test_value_absent_from_histogram_still_counted(self, deployment):
        """Values that appeared after the last discovery refresh fall into
        a stable default bucket and aggregate correctly."""
        partial_freq = {"north": 4, "south": 4}  # east/west unknown
        hist = EquiDepthHistogram.from_distribution(partial_freq, 2)
        rows, __ = run_protocol(
            deployment, "ed_hist", GROUP_SQL, histogram=hist
        )
        assert rows == sorted_rows(deployment.reference_answer(GROUP_SQL))


class TestSecurity:
    def test_ssi_sees_at_most_m_distinct_tags(self, deployment):
        hist = make_histogram(deployment, 2)
        run_protocol(deployment, "ed_hist", GROUP_SQL, histogram=hist)
        query_id = next(iter(deployment.ssi._storage))
        tags = deployment.ssi.observer.tag_frequencies(query_id)
        assert len(tags) <= 2

    def test_equi_depth_flattens_tag_distribution(self, deployment):
        """The SSI-visible bucket distribution is nearly uniform even
        though the underlying district distribution is what it is."""
        hist = make_histogram(deployment, 2)
        run_protocol(deployment, "ed_hist", GROUP_SQL, histogram=hist)
        query_id = next(iter(deployment.ssi._storage))
        tags = deployment.ssi.observer.tag_frequencies(query_id)
        counts = sorted(tags.values())
        assert counts[-1] <= counts[0] * 1.5

    def test_no_fake_tuples_needed(self, deployment):
        """Unlike the noise protocols, the covering result contains only
        true tuples (the headline efficiency win of ED_Hist)."""
        hist = make_histogram(deployment, 2)
        __, driver = run_protocol(
            deployment, "ed_hist", GROUP_SQL, histogram=hist
        )
        assert driver.stats.tuples_collected == len(deployment.tds_list)


class TestDiscoveryIntegration:
    def test_build_histogram_via_discovery(self, deployment):
        """The full ED_Hist pre-protocol: discover the distribution with
        S_Agg, build the histogram, run the query."""
        hist = build_histogram(deployment, "Consumer", "district", num_buckets=2)
        assert hist.bucket_count() == 2
        sql = "SELECT district, SUM(cid) AS s FROM Consumer GROUP BY district"
        rows, __ = run_protocol(deployment, "ed_hist", sql, histogram=hist)
        assert rows == sorted_rows(deployment.reference_answer(sql))
