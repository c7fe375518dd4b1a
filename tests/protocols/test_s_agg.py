"""S_Agg protocol tests (§4.2)."""

import math
import random

import pytest

from repro.exceptions import ProtocolError
from repro.net.frames import ALPHA_OPTIMAL, QueryMeta
from repro.protocols import ProtocolDriver

from .conftest import run_protocol, sorted_rows


GROUP_SQL = (
    "SELECT C.district, AVG(P.cons) AS avg_cons FROM Power P, Consumer C "
    "WHERE C.cid = P.cid GROUP BY C.district"
)


class TestCorrectness:
    def test_paper_style_query(self, deployment):
        rows, __ = run_protocol(deployment, "s_agg", GROUP_SQL)
        assert rows == sorted_rows(deployment.reference_answer(GROUP_SQL))

    @pytest.mark.parametrize(
        "aggregate",
        ["COUNT(*)", "SUM(cons)", "AVG(cons)", "MIN(cons)", "MAX(cons)",
         "MEDIAN(cons)", "COUNT(DISTINCT cid)"],
    )
    def test_every_aggregate_function(self, deployment, aggregate):
        sql = f"SELECT {aggregate} AS v FROM Power"
        rows, __ = run_protocol(deployment, "s_agg", sql)
        assert rows == sorted_rows(deployment.reference_answer(sql))

    def test_having_clause(self, deployment):
        sql = (
            "SELECT district, COUNT(*) AS n FROM Consumer "
            "GROUP BY district HAVING COUNT(*) > 3"
        )
        rows, __ = run_protocol(deployment, "s_agg", sql)
        assert rows == sorted_rows(deployment.reference_answer(sql))

    def test_multi_column_group_by(self, deployment):
        sql = (
            "SELECT district, accomodation, COUNT(*) AS n FROM Consumer "
            "GROUP BY district, accomodation"
        )
        rows, __ = run_protocol(deployment, "s_agg", sql)
        assert rows == sorted_rows(deployment.reference_answer(sql))

    def test_where_and_group(self, deployment):
        sql = (
            "SELECT district, COUNT(*) AS n FROM Consumer "
            "WHERE accomodation = 'detached house' GROUP BY district"
        )
        rows, __ = run_protocol(deployment, "s_agg", sql)
        assert rows == sorted_rows(deployment.reference_answer(sql))

    def test_empty_match_returns_empty(self, deployment):
        sql = (
            "SELECT district, COUNT(*) AS n FROM Consumer "
            "WHERE cid > 9999 GROUP BY district"
        )
        rows, __ = run_protocol(deployment, "s_agg", sql)
        assert rows == []

    def test_rejects_non_aggregate_query(self, deployment):
        with pytest.raises(ProtocolError):
            run_protocol(deployment, "s_agg", "SELECT district FROM Consumer")

    def test_alpha_validation(self, deployment):
        with pytest.raises(ProtocolError):
            ProtocolDriver(
                deployment.ssi,
                deployment.tds_list,
                deployment.tds_list,
                random.Random(0),
                QueryMeta("s_agg", {"alpha": 1.0}),
            )


class TestIterativeStructure:
    def test_round_count_close_to_log_alpha(self, deployment):
        __, driver = run_protocol(deployment, "s_agg", GROUP_SQL)
        items = driver.stats.tuples_collected
        expected = math.ceil(math.log(items) / math.log(round(ALPHA_OPTIMAL)))
        assert driver.stats.aggregation_rounds == pytest.approx(expected, abs=1)

    def test_larger_alpha_fewer_rounds(self, deployment):
        __, slow = run_protocol(deployment, QueryMeta("s_agg", {"alpha": 2}), GROUP_SQL)
        # fresh deployment state for a second run
        import tests.protocols.conftest as c

        dep2 = type(deployment).build(
            16, c.smartmeter_factory(), tables=["Power", "Consumer"], seed=42
        )
        __, fast = run_protocol(dep2, QueryMeta("s_agg", {"alpha": 8}), GROUP_SQL)
        assert fast.stats.aggregation_rounds < slow.stats.aggregation_rounds


class TestSecurity:
    def test_ssi_sees_no_group_tags(self, deployment):
        """S_Agg's defining property: everything is nDet_Enc, no routing
        tags, so the observer has no frequency signal at all."""
        __, __d = run_protocol(deployment, "s_agg", GROUP_SQL)
        query_id = next(iter(deployment.ssi._storage))
        assert deployment.ssi.observer.tag_frequencies(query_id) == {}
        assert (
            deployment.ssi.observer.tag_frequencies(query_id, "aggregation") == {}
        )

    def test_collection_ciphertexts_all_distinct(self, deployment):
        """nDet_Enc: even equal tuples encrypt differently."""
        __, __d = run_protocol(deployment, "s_agg", GROUP_SQL)
        payloads = [
            o.payload_size
            for o in deployment.ssi.observer.observations
            if o.phase == "collection"
        ]
        assert len(payloads) > 0  # sanity: sizes uniform, content unobservable


class TestFailureRecovery:
    def test_flaky_workers_still_correct(self, deployment):
        failures = {"budget": 4}

        def injector(tds_id, partition):
            if failures["budget"] > 0:
                failures["budget"] -= 1
                return True
            return False

        rows, driver = run_protocol(
            deployment, "s_agg", GROUP_SQL, failure_injector=injector
        )
        assert rows == sorted_rows(deployment.reference_answer(GROUP_SQL))
        assert driver.stats.reassigned_partitions == 4
