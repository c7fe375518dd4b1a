"""Security audit tests: live protocol runs against their contracts."""

import pytest

from repro.exceptions import ConfigurationError
from repro.exposure.audit import AuditReport, audit_query
from repro.net.frames import QueryMeta
from repro.ssi.observer import Observer
from repro.protocols import Deployment
from repro.tds.histogram import EquiDepthHistogram

from ..protocols.conftest import (
    DISTRICTS,
    district_histogram,
    run_protocol,
    smartmeter_factory,
)


GROUP_SQL = "SELECT district, COUNT(*) AS n FROM Consumer GROUP BY district"
DOMAIN = [(d,) for d in DISTRICTS]
HISTOGRAM = district_histogram()


@pytest.fixture
def deployment():
    return Deployment.build(
        16, smartmeter_factory(), tables=["Power", "Consumer"], seed=23
    )


def query_id_of(deployment):
    return next(iter(deployment.ssi._storage))


class TestCleanRuns:
    def test_s_agg_audit_clean(self, deployment):
        run_protocol(deployment, "s_agg", GROUP_SQL)
        report = audit_query(deployment.ssi.observer, query_id_of(deployment), "s_agg")
        assert report.ok(), report.findings

    def test_basic_audit_clean(self, deployment):
        run_protocol(
            deployment, "basic",
            "SELECT district FROM Consumer WHERE cid < 5",
        )
        report = audit_query(deployment.ssi.observer, query_id_of(deployment), "basic")
        assert report.ok(), report.findings

    def test_c_noise_audit_clean(self, deployment):
        run_protocol(deployment, "c_noise", GROUP_SQL, histogram=HISTOGRAM)
        report = audit_query(
            deployment.ssi.observer, query_id_of(deployment), "c_noise",
            max_distinct_tags=len(DOMAIN),
        )
        assert report.ok(), report.findings

    def test_ed_hist_audit_clean(self, deployment):
        hist = EquiDepthHistogram.from_distribution({d: 4 for d in DISTRICTS}, 2)
        run_protocol(deployment, "ed_hist", GROUP_SQL, histogram=hist)
        report = audit_query(
            deployment.ssi.observer, query_id_of(deployment), "ed_hist",
            max_distinct_tags=2,
        )
        assert report.ok(), report.findings

    def test_rnf_audit_clean_without_flatness(self, deployment):
        run_protocol(deployment, QueryMeta("rnf_noise", {"nf": 1}), GROUP_SQL, histogram=HISTOGRAM)
        report = audit_query(
            deployment.ssi.observer, query_id_of(deployment), "rnf_noise",
            max_distinct_tags=len(DOMAIN),
        )
        assert report.ok(), report.findings


class TestViolationsDetected:
    def test_tags_on_tagfree_protocol_flagged(self, deployment):
        """Run a tagged protocol but audit it against the S_Agg contract:
        the observed tags must be flagged."""
        run_protocol(deployment, "c_noise", GROUP_SQL, histogram=HISTOGRAM)
        report = audit_query(deployment.ssi.observer, query_id_of(deployment), "s_agg")
        assert not report.ok()
        assert any(f.check == "no-tags" for f in report.findings)

    def test_skewed_tags_flagged_for_c_noise(self):
        """A fabricated skewed log must violate the C_Noise flatness
        contract."""
        observer = Observer()
        for __ in range(10):
            observer.record("q", "collection", 256, b"heavy")
        observer.record("q", "collection", 256, b"light")
        report = audit_query(observer, "q", "c_noise")
        assert any(f.check == "flat-tags" for f in report.findings)

    def test_tag_budget_violation(self):
        observer = Observer()
        for i in range(5):
            observer.record("q", "collection", 256, bytes([i]))
        report = audit_query(observer, "q", "ed_hist", max_distinct_tags=2)
        assert any(f.check == "tag-budget" for f in report.findings)

    def test_mixed_sizes_flagged(self):
        observer = Observer()
        observer.record("q", "collection", 256, None)
        observer.record("q", "collection", 512, None)
        report = audit_query(observer, "q", "basic")
        assert any(f.check == "uniform-sizes" for f in report.findings)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            audit_query(Observer(), "q", "mystery")

    def test_report_shape(self):
        report = audit_query(Observer(), "q", "s_agg")
        assert isinstance(report, AuditReport)
        assert report.ok()
        assert report.protocol == "s_agg"

    def test_a_zero_length_payload_is_flagged(self):
        """The one thing ``nonempty-payloads`` checks: the observer keeps
        sizes, not bytes, so a size of 0 is all it can find."""
        observer = Observer()
        observer.record("q", "collection", 256, None)
        observer.record("q", "aggregation", 0, None)
        report = audit_query(observer, "q", "s_agg")
        assert [f.check for f in report.findings] == ["nonempty-payloads"]
        assert "aggregation" in report.findings[0].detail
        observer.record("q", "collection", 0, None)
        checks = [f.check for f in audit_query(observer, "q", "s_agg").findings]
        assert checks.count("nonempty-payloads") == 1  # one finding per query
        assert audit_query(observer, "other", "s_agg").ok()
