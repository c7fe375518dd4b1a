"""LoadQ accounting and SIZE-clause timing across the protocol drivers.

Two historical bugs are pinned here:

* LoadQ under-counting — ``run_partitions`` and the S_Agg filtering phase
  charged only downloaded bytes while the trace recorded both directions,
  so ``stats.bytes_processed`` silently diverged from the replayed trace;
* dead time-based SIZE — drivers evaluated the SIZE clause with the
  default ``elapsed_seconds=0.0``, so ``SIZE n SECONDS`` never closed
  collection (and ``SIZE 0 SECONDS`` closed it *after* the first upload).
"""

import pytest

from repro.tds.histogram import EquiDepthHistogram

from tests.protocols.conftest import run_protocol

GROUP_SQL = "SELECT district, COUNT(*) AS n FROM Consumer GROUP BY district"
PLAIN_SQL = "SELECT cid, cons FROM Power WHERE cons >= 0"


def district_histogram():
    freq = {d: 4 for d in ("north", "south", "east", "west")}
    return EquiDepthHistogram.from_distribution(freq, 2)


class TestLoadQMatchesTrace:
    """stats.bytes_processed must equal the byte total of the trace —
    LoadQ is downloads *plus* uploads, in every phase."""

    def test_s_agg(self, deployment):
        __, driver = run_protocol(deployment, "s_agg", GROUP_SQL)
        assert driver.stats.bytes_processed == sum(
            e.total_bytes() for e in driver.trace.events
        )

    def test_basic(self, deployment):
        __, driver = run_protocol(deployment, "basic", PLAIN_SQL)
        assert driver.stats.bytes_processed == driver.trace.total_bytes()

    def test_c_noise(self, deployment):
        __, driver = run_protocol(
            deployment, "c_noise", GROUP_SQL, histogram=district_histogram()
        )
        assert driver.stats.bytes_processed == driver.trace.total_bytes()

    def test_ed_hist(self, deployment):
        __, driver = run_protocol(
            deployment, "ed_hist", GROUP_SQL, histogram=district_histogram()
        )
        assert driver.stats.bytes_processed == driver.trace.total_bytes()

    def test_collection_charges_query_download(self, deployment):
        """Each collector downloads the encrypted query before uploading;
        both directions must appear in the collection trace events."""
        __, driver = run_protocol(deployment, "s_agg", GROUP_SQL)
        events = driver.trace.events_in("collection")
        assert events
        assert all(e.bytes_down > 0 for e in events)
        assert all(e.bytes_up > 0 for e in events)


class TestSizeSeconds:
    """SIZE n SECONDS runs on the drivers' logical collection clock:
    collector i connects at i * collection_interval seconds."""

    def test_closes_at_logical_time(self, deployment):
        rows, driver = run_protocol(
            deployment, "s_agg", GROUP_SQL + " SIZE 3 SECONDS"
        )
        # collectors at t=0,1,2 contribute; the t=3 arrival closes the query
        assert len(driver.trace.events_in("collection")) == 3
        assert driver.stats.tuples_collected == 3
        assert rows  # the partial population still aggregates

    def test_interval_scales_the_clock(self, deployment):
        __, driver = run_protocol(
            deployment,
            "s_agg",
            GROUP_SQL + " SIZE 3 SECONDS",
            collection_interval=0.5,
        )
        # arrivals at 0, .5, 1, ... — six fit strictly before t=3
        assert len(driver.trace.events_in("collection")) == 6

    def test_explicit_zero_closes_before_first_tuple(self, deployment):
        rows, driver = run_protocol(
            deployment, "s_agg", GROUP_SQL + " SIZE 0 SECONDS"
        )
        # zero tuples collected → an empty result, as in every other mode
        assert driver.stats.tuples_collected == 0
        assert driver.trace.events == []
        assert rows == []

    def test_explicit_zero_collects_nothing_basic(self, deployment):
        rows, driver = run_protocol(
            deployment, "basic", PLAIN_SQL + " SIZE 0 SECONDS"
        )
        assert driver.stats.tuples_collected == 0
        assert driver.trace.events_in("collection") == []
        assert rows == []

    def test_without_seconds_bound_all_collectors_answer(self, deployment):
        __, driver = run_protocol(deployment, "s_agg", GROUP_SQL)
        assert len(driver.trace.events_in("collection")) == len(driver.collectors)

    def test_tuple_bound_still_closes_eagerly(self, deployment):
        __, driver = run_protocol(
            deployment, "s_agg", GROUP_SQL + " SIZE 5 TUPLES"
        )
        assert driver.stats.tuples_collected == 5
