"""Ablation (§4.2): the S_Agg RAM bound — how many groups fit per device.

"The partial aggregate structure must fit in RAM ... If the number of
groups is high and TDSs have a tiny RAM, this may become a limiting
factor."  This bench computes the maximum group count each device profile
sustains for typical aggregate shapes and verifies the bound empirically
on a real fold.
"""

import random

import pytest

from repro.bench import publish, render_table
from repro.core.messages import EncryptedTupleBlock, Partition
from repro.exceptions import ResourceExhaustedError
from repro.protocols import Deployment
from repro.sql.parser import parse
from repro.sql.schema import Database, schema
from repro.tds.device import SECURE_TOKEN, SMART_METER, SMARTPHONE, DeviceProfile
from repro.tds.node import SLOT_BYTES


#: slots per group: 1 key slot + the aggregate state slots
AGG_SHAPES = {
    "COUNT(*)": 1 + 1,
    "SUM + COUNT": 1 + 2,
    "AVG": 1 + 2,
    "AVG + VARIANCE": 1 + 5,
}


def max_groups_table():
    rows = []
    for device in (SECURE_TOKEN, SMART_METER, SMARTPHONE):
        for shape, slots in AGG_SHAPES.items():
            max_groups = device.ram_bytes // SLOT_BYTES // slots
            rows.append((device.name, shape, device.ram_bytes // 1024, max_groups))
    return rows


def test_ram_bound_capacity(benchmark):
    rows = benchmark(max_groups_table)
    publish(
        "ablation_ram_bound",
        render_table(
            "Ablation — §4.2 RAM bound: max groups per device and aggregate shape",
            ["device", "aggregates", "RAM (KB)", "max groups"],
            rows,
        ),
    )
    token_count = next(r[3] for r in rows if r[0] == "secure-token" and r[1] == "COUNT(*)")
    phone_count = next(r[3] for r in rows if r[0] == "smartphone" and r[1] == "COUNT(*)")
    assert token_count == 2048  # 64 KB / 16 B / 2 slots
    assert phone_count > token_count * 50


def test_ram_bound_enforced_empirically(benchmark):
    """A device with room for ~8 groups folds 8 but refuses 40."""
    tiny = DeviceProfile(
        name="tiny", cpu_hz=120e6, crypto_cycles_per_block=167,
        cpu_cycles_per_byte=30, link_bps=7.9e6,
        ram_bytes=8 * 2 * SLOT_BYTES,
    )

    def factory(index, rng):
        db = Database()
        t = db.create_table(schema("T", g="INTEGER"))
        t.insert({"g": index})  # every TDS its own group: G = Nt
        return db

    deployment = Deployment.build(40, factory, tables=["T"], seed=0)
    querier = deployment.make_querier()
    envelope = querier.make_envelope("SELECT g, COUNT(*) AS n FROM T GROUP BY g")
    deployment.ssi.post_query(envelope)
    statement = deployment.tds_list[0].open_query(envelope)

    from repro.tds.node import TrustedDataServer

    cramped = TrustedDataServer(
        "cramped", deployment.tds_list[0].database,
        deployment.provisioner.bundle_for_tds(),
        deployment.policy, deployment.authority, device=tiny,
        rng=random.Random(1),
    )
    few = EncryptedTupleBlock.concat(
        [tds.collect_block(envelope, "s_agg") for tds in deployment.tds_list[:8]]
    )
    benchmark.pedantic(
        cramped.aggregate_partition,
        args=(statement, Partition(0, few)),
        rounds=1,
        iterations=1,
    )  # fits

    many = EncryptedTupleBlock.concat(
        [tds.collect_block(envelope, "s_agg") for tds in deployment.tds_list]
    )
    with pytest.raises(ResourceExhaustedError):
        cramped.aggregate_partition(statement, Partition(1, many))
