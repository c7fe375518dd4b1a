"""Shared fixtures for the network-runtime tests.

The population mirrors the protocol-test smart meters but with
integer-valued consumptions: sums of integer-valued floats are exact, so
aggregate results cannot drift with partition/merge order and fleet-mode
results can be compared to in-process driver results with ``==``.
"""

import asyncio
import random

import pytest

from repro.net import frames
from repro.obs import metrics as obs_metrics
from repro.protocols import Deployment, ProtocolDriver
from repro.sql.schema import Database, schema
from repro.tds.histogram import EquiDepthHistogram

from .golden.capture import block

DISTRICTS = ["north", "south", "east", "west"]

GROUP_SQL = "SELECT district, COUNT(*) AS n FROM Consumer GROUP BY district"
AVG_SQL = (
    "SELECT C.district, AVG(P.cons) AS avg_cons FROM Power P, Consumer C "
    "WHERE C.cid = P.cid GROUP BY C.district"
)


def meter_factory(index, rng):
    db = Database()
    power = db.create_table(schema("Power", cid="INTEGER", cons="REAL"))
    consumer = db.create_table(
        schema("Consumer", cid="INTEGER", district="TEXT", accomodation="TEXT")
    )
    consumer.insert(
        {
            "cid": index,
            "district": DISTRICTS[index % len(DISTRICTS)],
            "accomodation": "detached house" if index % 2 == 0 else "flat",
        }
    )
    power.insert({"cid": index, "cons": float(10 * index)})
    return db


def build_deployment(num_tds=8, seed=42):
    return Deployment.build(
        num_tds, meter_factory, tables=["Power", "Consumer"], seed=seed
    )


@pytest.fixture
def deployment():
    return build_deployment()


def make_histogram(deployment, num_buckets=2):
    freq = {}
    for row in deployment.reference_answer(GROUP_SQL):
        freq[row["district"]] = row["n"]
    return EquiDepthHistogram.from_distribution(freq, num_buckets)


def sorted_rows(rows):
    return sorted(rows, key=lambda r: str(sorted(r.items())))


def run_driver_inproc(meta, sql, num_tds=8, seed=42, **kwargs):
    """Reference execution: the in-process driver for *meta* against the
    in-process SSI, returning the decrypted sorted rows."""
    dep = build_deployment(num_tds, seed)
    querier = dep.make_querier()
    envelope = querier.make_envelope(sql)
    dep.ssi.post_query(envelope)
    driver = ProtocolDriver(
        dep.ssi,
        collectors=dep.tds_list,
        workers=dep.tds_list,
        rng=random.Random(7),
        meta=meta,
        **kwargs,
    )
    driver.execute(envelope)
    return sorted_rows(querier.decrypt_result(dep.ssi.fetch_result(envelope.query_id)))


def sample(name):
    """The current value of the unlabelled counter or gauge *name*."""
    return obs_metrics.REGISTRY.snapshot()[name][()]


def run_async(coro, timeout=60.0):
    """Run one async test body with an overall watchdog."""

    async def guarded():
        return await asyncio.wait_for(coro, timeout=timeout)

    return asyncio.run(guarded())


async def finish_query(client, query_id, rows, tds_id="tds-x"):
    """Publish *rows* as the result of a ``QueryMeta("basic")`` query
    holding at least one tuple, the way a device does: close the
    collection, take its one filter partition, answer it."""
    await client.close_collection(query_id)
    _, unit, _ = await client.await_work(tds_id, [query_id], 0.0)
    await client.submit_partition_result(
        query_id, unit.partition_id, tds_id, (frames.RESULT_ROWS, block(*rows))
    )
