"""Latency attribution: per-query reconciliation and bucket exemplars."""

import io
import json
import os

import pytest

from repro.net.frames import PROTOCOLS
from repro.obs import attribution, spans as obs_spans
from repro.obs.spans import SpanRecorder, derive_trace_id

SPANS_MULTIQ = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "results",
    "spans_multiq.jsonl",
)


def records_from(recorder):
    buffer = io.StringIO()
    recorder.export_jsonl(buffer)
    buffer.seek(0)
    return list(obs_spans.load_jsonl(buffer))


def record_query(recorder, query_id, protocol="s_agg"):
    """One query's spans as its coordinator records them: the root, and
    collection, one aggregation round and filtering tiling it."""
    trace = derive_trace_id(query_id)
    root = recorder.start(
        "query", trace_id=trace, at=2.0, query_id=query_id, protocol=protocol
    )
    phases = [
        ("phase:collection", {"count": 4}),
        ("phase:aggregation", {"round": 0, "count": 4}),
        ("phase:filtering", {"count": 2}),
    ]
    for index, (name, attributes) in enumerate(phases):
        span = recorder.start(
            name,
            trace_id=trace,
            parent_id=root.span.span_id,
            at=2.0 + index,
            **attributes,
        )
        span.finish(at=3.0 + index)
    root.finish(at=5.0)


class TestBuildReport:
    def test_per_query_totals_reconcile_by_construction(self):
        rec = SpanRecorder(process="ssi")
        record_query(rec, "q-a")
        record_query(rec, "q-b")
        report = attribution.build_report(records_from(rec))
        assert report["totals"]["queries"] == 2
        for query in report["queries"]:
            assert query["reconciliation_pct"] == pytest.approx(100.0, abs=1.0)
            covered = sum(query["phases"].values()) + query["other_s"]
            assert covered == pytest.approx(query["wall_s"], abs=1e-5)

    def test_phases_link_by_parent_id(self):
        rec = SpanRecorder(process="ssi")
        record_query(rec, "q-a")
        report = attribution.build_report(records_from(rec))
        (query,) = report["queries"]
        assert query["query_id"] == "q-a"
        assert set(query["phases"]) == {"collection", "aggregation", "filtering"}
        assert query["aggregation_rounds"] == 1

    def test_resource_sums_attributed_by_containment(self):
        rec = SpanRecorder(process="fleet-0")
        trace = derive_trace_id("q-a")
        root = rec.start("query", trace_id=trace, at=1.0, query_id="q-a")
        unit = rec.start("contribution", trace_id=trace, at=1.5)
        unit.annotate(queue_seconds=0.1, crypto_seconds=0.2, wire_seconds=0.3)
        unit.finish(at=2.0)
        root.finish(at=3.0)
        report = attribution.build_report(records_from(rec))
        (query,) = report["queries"]
        assert query["resources"] == {
            "queue_s": pytest.approx(0.1),
            "crypto_s": pytest.approx(0.2),
            "wire_s": pytest.approx(0.3),
        }

    def test_protocol_attribute_adds_a_group(self):
        rec = SpanRecorder(process="ssi")
        record_query(rec, "q-a", protocol="ed_hist")
        report = attribution.build_report(records_from(rec))
        names = {g["name"] for g in report["groups"]}
        assert "query" in names
        assert "ed_hist:query" in names

    def test_every_group_p99_bucket_has_an_exemplar(self):
        rec = SpanRecorder(process="ssi")
        for index in range(20):
            span = rec.start(
                "rpc:submit", trace_id=derive_trace_id(f"q{index}"), at=0.0
            )
            span.finish(at=0.001 * (index + 1))
        report = attribution.build_report(records_from(rec))
        for group in report["groups"]:
            assert group["p99_exemplars"], group["name"]
            # and the p99 exemplar is the trace of a slowest observation
            slowest = max(
                (b for b in group["buckets"]),
                key=lambda b: b["le"],
            )
            assert slowest["exemplars"]

    def test_exemplars_bounded_per_bucket(self):
        rec = SpanRecorder(process="ssi")
        for index in range(50):
            span = rec.start("rpc:x", trace_id=derive_trace_id(f"q{index}"))
            span.finish(at=span.span.start + 0.0001)  # all in one bucket
        report = attribution.build_report(records_from(rec))
        (group,) = report["groups"]
        (bucket,) = [b for b in group["buckets"] if b["count"] == 50]
        assert len(bucket["exemplars"]) == attribution.EXEMPLARS_PER_BUCKET

    def test_malformed_records_skipped(self):
        report = attribution.build_report(
            ["junk", {"name": "x"}, {"trace_id": "t", "start": "?", "name": "x"}]
        )
        assert report["totals"]["queries"] == 0
        assert report["groups"] == []


class TestAcceptance:
    """The ISSUE 10 acceptance check, against the committed span export."""

    @pytest.fixture()
    def report(self):
        if not os.path.exists(SPANS_MULTIQ):
            pytest.skip("benchmarks/results/spans_multiq.jsonl not present")
        return attribution.build_report(
            attribution.load_records([SPANS_MULTIQ])
        )

    def test_multiq_reconciles_within_one_percent(self, report):
        # "other" absorbs any gap, so reconciliation alone cannot fail:
        # the phases themselves must cover the query, under its protocol
        assert report["totals"]["queries"] >= 1
        for query in report["queries"]:
            assert abs(query["reconciliation_pct"] - 100.0) <= 1.0
            assert query["other_s"] <= 0.01 * query["wall_s"], query
            assert query["protocol"] in PROTOCOLS, query

    def test_multiq_p99_buckets_list_exemplars(self, report):
        for group in report["groups"]:
            assert len(group["p99_exemplars"]) >= 1


class TestRenderers:
    def make_report(self):
        rec = SpanRecorder(process="ssi")
        record_query(rec, "q-a")
        return attribution.build_report(records_from(rec))

    def test_console_mentions_queries_and_groups(self):
        text = attribution.render_console(self.make_report())
        assert "q-a" in text
        assert "phase attribution" in text
        assert "p99" in text

    def test_html_is_self_contained(self):
        page = attribution.render_html(self.make_report())
        assert page.startswith("<!doctype html>")
        assert "<style>" in page
        assert "q-a" in page
        assert "src=" not in page  # no external assets

    def test_json_rendering_is_valid_json(self):
        payload = json.loads(attribution.report_json(self.make_report()))
        assert payload["totals"]["queries"] == 1
        for group in payload["groups"]:
            for bucket in group["buckets"]:
                assert bucket["le"] == "inf" or isinstance(
                    bucket["le"], (int, float)
                )
