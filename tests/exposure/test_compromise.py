"""Compromised-TDS extension tests: leakage analysis and spot checks."""

import random

import pytest

from repro.core.messages import EncryptedPartial, EncryptedTupleBlock, Partition
from repro.exceptions import ConfigurationError
from repro.exposure.compromise import (
    analyze_trace_leakage,
    dilution_curve,
    expected_leak_fraction,
)
from repro.protocols import Deployment
from repro.protocols.verification import SpotChecker, verify_partition
from repro.workloads import smart_meter_factory

from ..protocols.conftest import run_protocol


@pytest.fixture
def deployment():
    return Deployment.build(
        16,
        smart_meter_factory(num_districts=4),
        tables=["Power", "Consumer"],
        seed=13,
    )


GROUP_SQL = "SELECT district, COUNT(*) AS n FROM Consumer GROUP BY district"


class TestExpectedLeak:
    def test_fraction(self):
        assert expected_leak_fraction(1, 10) == 0.1
        assert expected_leak_fraction(0, 10) == 0.0
        assert expected_leak_fraction(10, 10) == 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            expected_leak_fraction(1, 0)
        with pytest.raises(ConfigurationError):
            expected_leak_fraction(-1, 5)
        with pytest.raises(ConfigurationError):
            expected_leak_fraction(6, 5)

    def test_dilution_curve_monotone(self):
        curve = dilution_curve(20, 5)
        fractions = [f for __, f in curve]
        assert fractions == sorted(fractions)
        assert curve[0] == (0, 0.0)


class TestTraceLeakage:
    def test_no_compromise_is_clean(self, deployment):
        __, driver = run_protocol(deployment, "s_agg", GROUP_SQL)
        report = analyze_trace_leakage(driver.trace, [])
        assert report.is_clean()
        assert report.raw_fraction == 0.0

    def test_all_workers_compromised_leaks_everything(self, deployment):
        __, driver = run_protocol(deployment, "s_agg", GROUP_SQL)
        workers = {e.tds_id for e in driver.trace.events_in("aggregation")}
        report = analyze_trace_leakage(driver.trace, workers | {"extra"})
        assert report.raw_fraction == 1.0
        assert report.aggregate_fraction == 1.0

    def test_partial_compromise_partial_leak(self, deployment):
        __, driver = run_protocol(deployment, "s_agg", GROUP_SQL)
        workers = sorted({e.tds_id for e in driver.trace.events_in("aggregation", 0)})
        half = workers[: len(workers) // 2]
        report = analyze_trace_leakage(driver.trace, half)
        assert 0.0 < report.raw_fraction < 1.0
        assert report.compromised_workers == len(
            set(half) & {e.tds_id for e in driver.trace.events}
        )

    def test_sagg_raw_exposure_confined_to_round_zero(self, deployment):
        """Rounds ≥ 1 of S_Agg carry only partial aggregations."""
        __, driver = run_protocol(deployment, "s_agg", GROUP_SQL)
        later_rounds = [r for r in driver.trace.rounds("aggregation") if r != 0]
        assert later_rounds  # the iteration really happened
        round0_workers = {e.tds_id for e in driver.trace.events_in("aggregation", 0)}
        later_only = {
            e.tds_id
            for r in later_rounds
            for e in driver.trace.events_in("aggregation", r)
        } - round0_workers
        if later_only:  # a worker active only in later rounds leaks no raw bytes
            report = analyze_trace_leakage(driver.trace, later_only)
            assert report.raw_bytes_leaked == 0
            assert report.aggregate_bytes_leaked > 0

    def test_basic_protocol_filtering_counts_as_raw(self, deployment):
        sql = "SELECT district FROM Consumer WHERE cid < 8"
        __, driver = run_protocol(deployment, "basic", sql)
        workers = {e.tds_id for e in driver.trace.events_in("filtering")}
        report = analyze_trace_leakage(driver.trace, workers)
        assert report.raw_fraction == 1.0
        assert report.aggregate_bytes_leaked == 0


class TestSpotCheckVerification:
    def _setup(self, deployment):
        querier = deployment.make_querier()
        envelope = querier.make_envelope(GROUP_SQL)
        deployment.ssi.post_query(envelope)
        statement = deployment.tds_list[0].open_query(envelope)
        block = EncryptedTupleBlock.concat(
            [tds.collect_block(envelope, "s_agg") for tds in deployment.tds_list[:6]]
        )
        partition = Partition(0, block)
        return statement, partition

    def test_honest_output_verifies(self, deployment):
        statement, partition = self._setup(deployment)
        worker, verifier = deployment.tds_list[0], deployment.tds_list[1]
        claimed = worker.aggregate_partition(statement, partition)
        assert verify_partition(verifier, statement, partition, claimed)

    def test_tampered_output_detected(self, deployment):
        statement, partition = self._setup(deployment)
        worker, verifier = deployment.tds_list[0], deployment.tds_list[1]
        # the compromised worker drops half the partition's tuples
        half = range(len(partition.block) // 2)
        tampered_partition = Partition(0, partition.block.gather(half))
        claimed = worker.aggregate_partition(statement, tampered_partition)
        assert not verify_partition(verifier, statement, partition, claimed)

    def test_fabricated_partial_detected(self, deployment):
        statement, partition = self._setup(deployment)
        verifier = deployment.tds_list[1]
        fabricated = EncryptedPartial(
            deployment.tds_list[0]._k2_cipher().encrypt(b"\x00" * 64)
        )
        from repro.exceptions import ReproError

        with pytest.raises(ReproError):
            verify_partition(verifier, statement, partition, fabricated)

    def test_spot_checker_flags_offender(self, deployment):
        statement, partition = self._setup(deployment)
        worker, verifier = deployment.tds_list[0], deployment.tds_list[1]
        tampered = worker.aggregate_partition(
            statement, Partition(0, partition.block.gather([0, 1]))
        )
        checker = SpotChecker(verifier, audit_rate=1.0, rng=random.Random(0))
        result = checker.maybe_audit(statement, partition, tampered, "evil-tds")
        assert result is False
        assert checker.flagged == ["evil-tds"]
        assert checker.audited == 1

    def test_spot_checker_respects_rate(self, deployment):
        statement, partition = self._setup(deployment)
        worker, verifier = deployment.tds_list[0], deployment.tds_list[1]
        claimed = worker.aggregate_partition(statement, partition)
        checker = SpotChecker(verifier, audit_rate=0.0, rng=random.Random(0))
        assert checker.maybe_audit(statement, partition, claimed, "w") is None
        assert checker.audited == 0

    def test_detection_probability_formula(self, deployment):
        checker = SpotChecker(
            deployment.tds_list[0], audit_rate=0.5, rng=random.Random(0)
        )
        assert checker.detection_probability(0.5, 1) == pytest.approx(0.5)
        assert checker.detection_probability(0.5, 4) == pytest.approx(1 - 0.5**4)
        assert checker.detection_probability(0.0, 10) == 0.0
