"""Failure-injector factory tests + end-to-end resilience."""

import random

import pytest

from repro.core.messages import EncryptedTuple, EncryptedTupleBlock, Partition
from repro.exceptions import ConfigurationError
from repro.protocols import Deployment
from repro.simulation.failures import (
    combined,
    failure_budget,
    flaky_workers,
    random_failures,
)
from repro.workloads import smart_meter_factory

from ..protocols.conftest import run_protocol, sorted_rows


PARTITION = Partition(0, EncryptedTupleBlock.from_tuples([EncryptedTuple(bytes(8))]))


class TestFactories:
    def test_random_failures_rate(self):
        inject = random_failures(0.3, random.Random(0))
        hits = sum(inject("t", PARTITION) for __ in range(2000))
        assert 450 < hits < 750

    def test_random_failures_zero(self):
        inject = random_failures(0.0, random.Random(0))
        assert not any(inject("t", PARTITION) for __ in range(100))

    def test_random_failures_validation(self):
        with pytest.raises(ConfigurationError):
            random_failures(1.0, random.Random(0))
        with pytest.raises(ConfigurationError):
            random_failures(-0.1, random.Random(0))

    def test_flaky_workers(self):
        inject = flaky_workers(["bad-1", "bad-2"])
        assert inject("bad-1", PARTITION)
        assert not inject("good", PARTITION)

    def test_failure_budget(self):
        inject = failure_budget(2)
        results = [inject("t", PARTITION) for __ in range(4)]
        assert results == [True, True, False, False]

    def test_failure_budget_validation(self):
        with pytest.raises(ConfigurationError):
            failure_budget(-1)

    def test_combined(self):
        inject = combined(flaky_workers(["bad"]), failure_budget(1))
        assert inject("good", PARTITION)  # budget fires
        assert not inject("good", PARTITION)  # budget spent
        assert inject("bad", PARTITION)  # flaky always


class TestEndToEndResilience:
    def test_random_failures_still_correct(self):
        deployment = Deployment.build(
            12, smart_meter_factory(num_districts=3),
            tables=["Power", "Consumer"], seed=41,
        )
        sql = "SELECT district, COUNT(*) AS n FROM Consumer GROUP BY district"
        rows, driver = run_protocol(
            deployment, "s_agg", sql,
            failure_injector=random_failures(0.25, random.Random(4)),
        )
        assert rows == sorted_rows(deployment.reference_answer(sql))
        assert driver.stats.reassigned_partitions > 0

    def test_flaky_subset_still_correct(self):
        deployment = Deployment.build(
            12, smart_meter_factory(num_districts=3),
            tables=["Power", "Consumer"], seed=42,
        )
        sql = "SELECT district, COUNT(*) AS n FROM Consumer GROUP BY district"
        flaky = [tds.tds_id for tds in deployment.tds_list[:3]]
        rows, driver = run_protocol(
            deployment, "s_agg", sql,
            worker_fraction=1.0,
            failure_injector=flaky_workers(flaky),
        )
        assert rows == sorted_rows(deployment.reference_answer(sql))
        # flaky workers never completed anything
        for tds_id in flaky:
            assert tds_id not in {
                e.tds_id for e in driver.trace.events_in("aggregation")
            }
