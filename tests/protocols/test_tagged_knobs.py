"""Tagged-protocol tuning knobs: partition sizing and packing paths."""

import pytest

from repro.net.frames import QueryMeta

from .conftest import DISTRICTS, district_histogram, run_protocol, sorted_rows


GROUP_SQL = "SELECT district, COUNT(*) AS n FROM Consumer GROUP BY district"
HISTOGRAM = district_histogram()


class TestFirstStepPartitionSize:
    @pytest.mark.parametrize("size", [1, 3, None])
    def test_correct_at_any_partition_size(self, deployment, size):
        # None: a tag group left unsplit, which the table spells 0
        meta = QueryMeta("c_noise", {"first_step_partition_size": size or 0})
        rows, __ = run_protocol(deployment, meta, GROUP_SQL, histogram=HISTOGRAM)
        assert rows == sorted_rows(deployment.reference_answer(GROUP_SQL))

    def test_small_partitions_mean_more_work_items(self, deployment):
        __, fine = run_protocol(
            deployment, QueryMeta("c_noise", {"first_step_partition_size": 2}),
            GROUP_SQL, histogram=HISTOGRAM,
        )
        import tests.protocols.conftest as c
        from repro.protocols import Deployment

        dep2 = Deployment.build(
            16, c.smartmeter_factory(), tables=["Power", "Consumer"], seed=42
        )
        __, coarse = run_protocol(
            dep2, QueryMeta("c_noise", {"first_step_partition_size": 0}),
            GROUP_SQL, histogram=HISTOGRAM,
        )
        assert fine.stats.partitions_processed > coarse.stats.partitions_processed

    def test_filter_partition_size_knob(self, deployment):
        meta = QueryMeta("rnf_noise", {"nf": 1, "filter_partition_size": 1})
        rows, driver = run_protocol(deployment, meta, GROUP_SQL, histogram=HISTOGRAM)
        assert rows == sorted_rows(deployment.reference_answer(GROUP_SQL))
        # one final partial per group, one filtering partition each
        filtering = driver.trace.events_in("filtering")
        assert len(filtering) == len(DISTRICTS)
