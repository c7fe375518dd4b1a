"""Composite (multi-attribute) GROUP BY and NULL grouping values, across
the full protocol stack."""

import pytest

from repro.net.frames import QueryMeta
from repro.protocols import Deployment
from repro.sql.schema import Database, schema
from repro.tds.histogram import EquiDepthHistogram

from ..protocols.conftest import run_protocol, sorted_rows


COMPOSITE_SQL = (
    "SELECT district, accomodation, COUNT(*) AS n, SUM(cons) AS s "
    "FROM Meter GROUP BY district, accomodation"
)

DISTRICTS = ["north", "south"]
TYPES = ["house", "flat"]


def composite_factory():
    def factory(index, rng):
        db = Database()
        t = db.create_table(
            schema("Meter", district="TEXT", accomodation="TEXT", cons="REAL")
        )
        t.insert(
            {
                "district": DISTRICTS[index % 2],
                "accomodation": TYPES[(index // 2) % 2],
                "cons": float(index),
            }
        )
        return db

    return factory


def null_factory():
    def factory(index, rng):
        db = Database()
        t = db.create_table(schema("Meter", district="TEXT", cons="REAL"))
        district = None if index % 3 == 0 else DISTRICTS[index % 2]
        t.insert({"district": district, "cons": float(index)})
        return db

    return factory


@pytest.fixture
def composite_deployment():
    return Deployment.build(16, composite_factory(), tables=["Meter"], seed=3)


@pytest.fixture
def null_deployment():
    return Deployment.build(12, null_factory(), tables=["Meter"], seed=5)


COMPOSITE_DOMAIN = [(d, t) for d in DISTRICTS for t in TYPES]
#: the discovered distribution over composite keys: ED_Hist's buckets,
#: and as its value set the noise protocols' domain
COMPOSITE_HISTOGRAM = EquiDepthHistogram.from_distribution(
    {key: 4 for key in COMPOSITE_DOMAIN}, 2
)


class TestCompositeGroups:
    def test_s_agg(self, composite_deployment):
        rows, __ = run_protocol(composite_deployment, "s_agg", COMPOSITE_SQL)
        assert rows == sorted_rows(composite_deployment.reference_answer(COMPOSITE_SQL))

    def test_rnf_noise_with_tuple_domain(self, composite_deployment):
        rows, __ = run_protocol(
            composite_deployment, QueryMeta("rnf_noise", {"nf": 2}), COMPOSITE_SQL,
            histogram=COMPOSITE_HISTOGRAM,
        )
        assert rows == sorted_rows(composite_deployment.reference_answer(COMPOSITE_SQL))

    def test_c_noise_with_tuple_domain(self, composite_deployment):
        rows, driver = run_protocol(
            composite_deployment, "c_noise", COMPOSITE_SQL,
            histogram=COMPOSITE_HISTOGRAM,
        )
        assert rows == sorted_rows(composite_deployment.reference_answer(COMPOSITE_SQL))
        # each TDS emits |domain| tuples: a perfectly flat composite cover
        assert driver.stats.tuples_collected == 16 * len(COMPOSITE_DOMAIN)

    def test_ed_hist_with_composite_buckets(self, composite_deployment):
        rows, __ = run_protocol(
            composite_deployment, "ed_hist", COMPOSITE_SQL,
            histogram=COMPOSITE_HISTOGRAM,
        )
        assert rows == sorted_rows(composite_deployment.reference_answer(COMPOSITE_SQL))

    def test_composite_tags_flat_under_c_noise(self, composite_deployment):
        run_protocol(
            composite_deployment, "c_noise", COMPOSITE_SQL,
            histogram=COMPOSITE_HISTOGRAM,
        )
        query_id = next(iter(composite_deployment.ssi._storage))
        counts = composite_deployment.ssi.observer.tag_frequencies(query_id)
        assert len(counts) == len(COMPOSITE_DOMAIN)
        assert len(set(counts.values())) == 1


class TestNullGroupingValues:
    SQL = "SELECT district, COUNT(*) AS n FROM Meter GROUP BY district"

    def test_reference_includes_null_group(self, null_deployment):
        rows = null_deployment.reference_answer(self.SQL)
        assert any(row["district"] is None for row in rows)

    def test_s_agg_handles_null_group(self, null_deployment):
        rows, __ = run_protocol(null_deployment, "s_agg", self.SQL)
        assert rows == sorted_rows(null_deployment.reference_answer(self.SQL))

    def test_noise_handles_null_group(self, null_deployment):
        histogram = EquiDepthHistogram.from_distribution(
            {"north": 4, "south": 4, None: 4}, 2
        )
        rows, __ = run_protocol(
            null_deployment, QueryMeta("rnf_noise", {"nf": 1}), self.SQL,
            histogram=histogram,
        )
        assert rows == sorted_rows(null_deployment.reference_answer(self.SQL))

    def test_ed_hist_handles_null_group(self, null_deployment):
        histogram = EquiDepthHistogram.from_distribution(
            {"north": 4, "south": 4, None: 4}, 2
        )
        rows, __ = run_protocol(
            null_deployment, "ed_hist", self.SQL, histogram=histogram
        )
        assert rows == sorted_rows(null_deployment.reference_answer(self.SQL))
