"""Basic Select-From-Where protocol tests (§3.2)."""

import random

import pytest

from repro.exceptions import ProtocolError
from repro.net.frames import QueryMeta
from repro.protocols import ProtocolDriver

from .conftest import run_protocol, sorted_rows


SQL = "SELECT district FROM Consumer WHERE accomodation = 'detached house'"


class TestCorrectness:
    def test_matches_reference(self, deployment):
        rows, __ = run_protocol(deployment, "basic", SQL)
        assert rows == sorted_rows(deployment.reference_answer(SQL))

    def test_join_query(self, deployment):
        sql = (
            "SELECT P.cons FROM Power P, Consumer C "
            "WHERE C.cid = P.cid AND C.district = 'north'"
        )
        rows, __ = run_protocol(deployment, "basic", sql)
        assert rows == sorted_rows(deployment.reference_answer(sql))

    def test_empty_result(self, deployment):
        sql = "SELECT district FROM Consumer WHERE accomodation = 'castle'"
        rows, __ = run_protocol(deployment, "basic", sql)
        assert rows == []

    def test_select_star(self, deployment):
        sql = "SELECT * FROM Consumer WHERE cid < 3"
        rows, __ = run_protocol(deployment, "basic", sql)
        assert len(rows) == 3

    def test_rejects_aggregate_query(self, deployment):
        with pytest.raises(ProtocolError):
            run_protocol(
                deployment,
                "basic",
                "SELECT COUNT(*) FROM Consumer",
            )


class TestDummyTuples:
    def test_covering_result_hides_selectivity(self, deployment):
        """Every collector answers (dummy or data): the SSI sees exactly one
        submission per TDS and cannot infer how many matched."""
        __, driver = run_protocol(deployment, "basic", SQL)
        # 8 detached-house TDSs send a data tuple, 8 send a dummy
        assert driver.stats.tuples_collected == len(deployment.tds_list)

    def test_uniform_payload_sizes(self, deployment):
        """Padding discipline: dummies are size-indistinguishable."""
        __, driver = run_protocol(deployment, "basic", SQL)
        query_id = next(iter(deployment.ssi._storage))
        sizes = deployment.ssi.observer.payload_size_frequencies(query_id)
        assert len(sizes) == 1

    def test_no_group_tags_leaked(self, deployment):
        __, driver = run_protocol(deployment, "basic", SQL)
        query_id = next(iter(deployment.ssi._storage))
        assert deployment.ssi.observer.tag_frequencies(query_id) == {}


class TestSizeClause:
    def test_collection_stops_at_bound(self, deployment):
        sql = SQL + " SIZE 5"
        __, driver = run_protocol(deployment, "basic", sql)
        assert driver.stats.tuples_collected == 5

    def test_result_contains_only_collected_matches(self, deployment):
        sql = "SELECT district FROM Consumer SIZE 6"
        rows, __ = run_protocol(deployment, "basic", sql)
        assert len(rows) == 6


class TestFailureRecovery:
    def test_flaky_worker_does_not_lose_tuples(self, deployment):
        """A worker dying mid-partition triggers reassignment (§3.2
        Correctness) and the result stays complete."""
        failures = {"budget": 3}

        def injector(tds_id, partition):
            if failures["budget"] > 0:
                failures["budget"] -= 1
                return True
            return False

        rows, driver = run_protocol(
            deployment,
            "basic",
            SQL,
            failure_injector=injector,
        )
        assert rows == sorted_rows(deployment.reference_answer(SQL))
        assert driver.stats.reassigned_partitions == 3

    def test_all_workers_failing_aborts(self, deployment):
        from repro.exceptions import QueryAbortedError

        def always_fail(tds_id, partition):
            return True

        with pytest.raises(QueryAbortedError):
            run_protocol(
                deployment,
                "basic",
                SQL,
                failure_injector=always_fail,
            )


class TestStats:
    def test_participants_tracked(self, deployment):
        __, driver = run_protocol(deployment, "basic", SQL)
        assert len(driver.stats.participants) >= len(deployment.tds_list)
        assert driver.stats.bytes_processed > 0

    def test_partition_size_validation(self, deployment):
        with pytest.raises(ProtocolError):
            ProtocolDriver(
                deployment.ssi,
                deployment.tds_list,
                deployment.tds_list,
                random.Random(0),
                QueryMeta("basic", {"partition_size": 0}),
            )
