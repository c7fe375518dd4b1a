"""Mobility workload tests + the carbon-tax protocol run."""

import random

import pytest

from repro.protocols import Deployment, ProtocolDriver
from repro.workloads import (
    CARBON_TAX_QUERY,
    INSURANCE_BILLING_QUERY,
    ZONES,
    tracker_factory,
)


class TestTrackerFactory:
    def test_schema_and_rows(self):
        db = tracker_factory(trips_per_vehicle=3)(0, random.Random(0))
        assert db.has_table("Trip")
        assert len(db.table("Trip")) == 3
        row = next(db.table("Trip").rows())
        assert set(row) == {"vid", "zone", "km", "co2"}

    def test_zones_from_catalog(self):
        factory = tracker_factory()
        for i in range(20):
            for row in factory(i, random.Random(i)).table("Trip").rows():
                assert row["zone"] in ZONES

    def test_co2_proportional_to_km(self):
        factory = tracker_factory()
        for i in range(10):
            for row in factory(i, random.Random(i)).table("Trip").rows():
                assert 0.1 < row["co2"] / row["km"] < 0.3

    def test_km_positive_and_bounded(self):
        factory = tracker_factory(mean_km=10)
        for i in range(20):
            for row in factory(i, random.Random(i)).table("Trip").rows():
                assert 0.5 <= row["km"] <= 50


class TestMobilityQueries:
    @pytest.fixture
    def deployment(self):
        return Deployment.build(
            10, tracker_factory(trips_per_vehicle=2), tables=["Trip"], seed=8
        )

    def test_carbon_tax_via_s_agg(self, deployment):
        querier = deployment.make_querier()
        envelope = querier.make_envelope(CARBON_TAX_QUERY)
        deployment.ssi.post_query(envelope)
        ProtocolDriver(
            deployment.ssi, deployment.tds_list, deployment.tds_list,
            random.Random(2), "s_agg",
        ).execute(envelope)
        rows = querier.decrypt_result(deployment.ssi.fetch_result(envelope.query_id))
        assert sum(r["trips"] for r in rows) == 20
        reference = deployment.reference_answer(CARBON_TAX_QUERY)
        assert {r["zone"]: r["trips"] for r in rows} == {
            r["zone"]: r["trips"] for r in reference
        }

    def test_insurance_billing_reference(self, deployment):
        rows = deployment.reference_answer(INSURANCE_BILLING_QUERY)
        assert len(rows) == 10  # one bill per vehicle
        assert all(r["total_km"] > 0 for r in rows)
