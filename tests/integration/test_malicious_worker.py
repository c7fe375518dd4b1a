"""Malicious-worker integration: a tampering TDS inside a live S_Agg run
is detected, its output corrected, and the final answer stays right."""

import random

import pytest

from repro.core.messages import Partition
from repro.protocols import Deployment, ProtocolDriver, SpotChecker
from repro.tds.node import TrustedDataServer
from repro.workloads import smart_meter_factory

from ..protocols.conftest import sorted_rows


GROUP_SQL = "SELECT district, SUM(cid) AS s, COUNT(*) AS n FROM Consumer GROUP BY district"


class TamperingTDS(TrustedDataServer):
    """A compromised worker: silently drops half of every partition it
    aggregates (deflating counts and sums)."""

    def aggregate_partition(self, statement, partition):
        half = range(max(1, len(partition.block) // 2))
        truncated = Partition(partition.partition_id, partition.block.gather(half))
        return super().aggregate_partition(statement, truncated)


def corrupt(deployment: Deployment, index: int) -> TamperingTDS:
    """Replace one TDS with a tampering clone sharing its state."""
    honest = deployment.tds_list[index]
    evil = TamperingTDS(
        honest.tds_id,
        honest.database,
        deployment.provisioner.bundle_for_tds(),
        deployment.policy,
        deployment.authority,
        device=honest.device,
        rng=random.Random(999),
    )
    deployment.tds_list[index] = evil
    return evil


@pytest.fixture
def deployment():
    return Deployment.build(
        12, smart_meter_factory(num_districts=3),
        tables=["Power", "Consumer"], seed=55,
    )


class TestMaliciousWorker:
    def test_unchecked_tampering_corrupts_result(self, deployment):
        """Without auditing, the tampered partials silently skew the
        answer — the motivation for spot checks."""
        reference = sorted_rows(deployment.reference_answer(GROUP_SQL))
        corrupt(deployment, 0)
        querier = deployment.make_querier()
        envelope = querier.make_envelope(GROUP_SQL)
        deployment.ssi.post_query(envelope)
        driver = ProtocolDriver(
            deployment.ssi,
            collectors=deployment.tds_list,
            workers=[deployment.tds_list[0]],  # the tamperer does all work
            rng=random.Random(3),
            meta="s_agg",
        )
        driver.execute(envelope)
        rows = querier.decrypt_result(deployment.ssi.fetch_result(envelope.query_id))
        total = sum(r["n"] for r in rows)
        assert total < 12  # tuples silently dropped

    def test_spot_checked_run_survives_tampering(self, deployment):
        """With a spot checker wired into the driver, the tamperer is
        flagged and every partial corrected: the answer matches the
        reference exactly."""
        reference = sorted_rows(deployment.reference_answer(GROUP_SQL))
        evil = corrupt(deployment, 0)
        verifier = deployment.tds_list[5]
        checker = SpotChecker(verifier, audit_rate=1.0, rng=random.Random(1))

        querier = deployment.make_querier()
        envelope = querier.make_envelope(GROUP_SQL)
        deployment.ssi.post_query(envelope)
        driver = ProtocolDriver(
            deployment.ssi,
            collectors=deployment.tds_list,
            workers=[evil, deployment.tds_list[1]],
            rng=random.Random(3),
            spot_checker=checker,
            meta="s_agg",
        )
        driver.execute(envelope)
        rows = querier.decrypt_result(deployment.ssi.fetch_result(envelope.query_id))
        assert sorted_rows(rows) == reference
        assert evil.tds_id in checker.flagged
        # every fold is recomputed; the finalize partition has no partial
        # to compare
        assert checker.audited == len(driver.trace.events_in("aggregation"))
        assert driver.stats.partitions_processed == checker.audited + 1

    def test_honest_run_unflagged(self, deployment):
        verifier = deployment.tds_list[5]
        checker = SpotChecker(verifier, audit_rate=1.0, rng=random.Random(1))
        querier = deployment.make_querier()
        envelope = querier.make_envelope(GROUP_SQL)
        deployment.ssi.post_query(envelope)
        driver = ProtocolDriver(
            deployment.ssi,
            collectors=deployment.tds_list,
            workers=deployment.tds_list[:4],
            rng=random.Random(3),
            spot_checker=checker,
            meta="s_agg",
        )
        driver.execute(envelope)
        rows = querier.decrypt_result(deployment.ssi.fetch_result(envelope.query_id))
        assert sorted_rows(rows) == sorted_rows(deployment.reference_answer(GROUP_SQL))
        assert checker.flagged == []
