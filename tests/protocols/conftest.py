"""Shared fixtures for protocol tests: a small smart-meter population."""

import random

import pytest

from repro.protocols import Deployment, ProtocolDriver
from repro.sql.schema import Database, schema
from repro.tds.histogram import EquiDepthHistogram

DISTRICTS = ["north", "south", "east", "west"]


def smartmeter_factory(num_districts=4, readings_per_tds=1):
    """TDS i lives in district i % num_districts and holds one Power row
    per reading with consumption 10*i + j."""

    def factory(index, rng):
        db = Database()
        power = db.create_table(schema("Power", cid="INTEGER", cons="REAL"))
        consumer = db.create_table(
            schema("Consumer", cid="INTEGER", district="TEXT", accomodation="TEXT")
        )
        district = DISTRICTS[index % num_districts]
        accomodation = "detached house" if index % 2 == 0 else "flat"
        consumer.insert(
            {"cid": index, "district": district, "accomodation": accomodation}
        )
        for j in range(readings_per_tds):
            power.insert({"cid": index, "cons": float(10 * index + j)})
        return db

    return factory


@pytest.fixture
def deployment():
    return Deployment.build(
        16, smartmeter_factory(), tables=["Power", "Consumer"], seed=42
    )


def district_histogram(num_buckets=2):
    """The discovered distribution the tagged protocols' devices hold:
    ED_Hist's buckets, and as its value set the noise protocols' domain."""
    return EquiDepthHistogram.from_distribution(
        {district: 1 for district in DISTRICTS}, num_buckets
    )


def run_protocol(deployment, meta, sql, worker_fraction=0.5, seed=7, **kwargs):
    """Post *sql*, run the driver for *meta* (a protocol name or a
    QueryMeta), return (sorted rows, driver)."""
    querier = deployment.make_querier()
    envelope = querier.make_envelope(sql)
    deployment.ssi.post_query(envelope)
    driver = ProtocolDriver(
        deployment.ssi,
        collectors=deployment.tds_list,
        workers=deployment.connected_tds(worker_fraction),
        rng=random.Random(seed),
        meta=meta,
        **kwargs,
    )
    driver.execute(envelope)
    rows = querier.decrypt_result(deployment.ssi.fetch_result(envelope.query_id))
    return sorted(rows, key=lambda r: str(sorted(r.items()))), driver


def sorted_rows(rows):
    return sorted(rows, key=lambda r: str(sorted(r.items())))
