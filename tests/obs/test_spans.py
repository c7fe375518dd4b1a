"""Span recorder, trace derivation, and a query's phases as its
coordinator records them."""

import io
import json

from repro.core.messages import EncryptedTuple, EncryptedTupleBlock
from repro.net.coordinator import RESULT_OF, QueryCoordinator
from repro.net.frames import RESULT_ROWS, WORK_FOLD, QueryMeta
from repro.obs.spans import (
    RECORDER,
    SpanRecorder,
    TraceContext,
    derive_trace_id,
    load_jsonl,
    merge_timeline,
)
from repro.ssi.server import SupportingServerInfrastructure

from ..net.golden.capture import envelope


class TestDeriveTraceId:
    def test_deterministic_and_nonzero(self):
        a = derive_trace_id("q-1")
        assert a == derive_trace_id("q-1")
        assert a != derive_trace_id("q-2")
        assert 0 < a < 2**64

    def test_cross_process_agreement_needs_no_propagation(self):
        ssi = SpanRecorder(process="ssi")
        fleet = SpanRecorder(process="fleet-0")
        ssi.start("phase:collection", trace_id=derive_trace_id("q")).finish()
        fleet.start("contribution", trace_id=derive_trace_id("q")).finish()
        trace = derive_trace_id("q")
        assert ssi.by_trace(trace) and fleet.by_trace(trace)


class TestTraceContext:
    def test_wire_round_trip(self):
        ctx = TraceContext(trace_id=0x1122334455667788, span_id=0xAABBCCDD)
        raw = ctx.to_wire()
        assert len(raw) == 16
        assert TraceContext.from_wire(raw) == ctx

    def test_zero_trace_and_bad_length_rejected(self):
        assert TraceContext.from_wire(b"\x00" * 16) is None
        assert TraceContext.from_wire(b"\x01" * 15) is None


class TestSpanRecorder:
    def test_start_finish_and_attributes(self):
        rec = SpanRecorder(process="t")
        handle = rec.start("rpc:post_query", trace_id=7, count=3)
        handle.annotate(outcome="ok", blob=b"\x00\x01")
        handle.finish()
        (span,) = rec.finished()
        assert span.name == "rpc:post_query"
        assert span.process == "t"
        assert span.duration >= 0
        assert span.attributes["count"] == 3
        assert span.attributes["outcome"] == "ok"
        # span attributes pass the same redaction boundary as log fields
        assert span.attributes["blob"] == "<redacted bytes len=2>"

    def test_span_ids_unique_and_deterministic(self):
        rec_a = SpanRecorder(process="a")
        ids_a = [rec_a.start("s", trace_id=1).span.span_id for _ in range(10)]
        assert len(set(ids_a)) == 10
        rec_a2 = SpanRecorder(process="a")
        ids_a2 = [rec_a2.start("s", trace_id=1).span.span_id for _ in range(10)]
        assert ids_a == ids_a2  # reproducible per (process, seq)
        rec_b = SpanRecorder(process="b")
        ids_b = [rec_b.start("s", trace_id=1).span.span_id for _ in range(10)]
        assert not set(ids_a) & set(ids_b)  # distinct across processes

    def test_cap_counts_drops(self):
        rec = SpanRecorder(max_spans=2)
        for index in range(5):
            rec.start("s", trace_id=1, seq=index).finish()
        assert len(rec.snapshot()) == 2
        assert rec.dropped == 3
        # Ring semantics: the *newest* spans survive, so a long-lived
        # serve process keeps the recent window instead of the startup.
        assert [s.attributes["seq"] for s in rec.snapshot()] == [3, 4]

    def test_drop_counter_exported(self):
        from repro.obs import metrics as obs_metrics

        rec = SpanRecorder(max_spans=1)
        rec.start("a", trace_id=1).finish()
        rec.start("b", trace_id=1).finish()
        snapshot = obs_metrics.REGISTRY.snapshot()
        assert snapshot["repro_obs_spans_dropped_total"][()] >= 1

    def test_finishing_an_evicted_span_is_safe(self):
        rec = SpanRecorder(max_spans=1)
        first = rec.start("a", trace_id=1)
        rec.start("b", trace_id=1)
        first.finish()  # evicted from the ring, but the handle still works
        assert first.span.end is not None

    def test_export_jsonl_chunks_streams_whole_lines(self):
        rec = SpanRecorder(process="chunks")
        for _ in range(7):
            rec.start("s", trace_id=1).finish()
        chunks = list(rec.export_jsonl_chunks(chunk_size=3))
        assert len(chunks) == 3  # 3 + 3 + 1
        for chunk in chunks:
            assert chunk.endswith("\n")
            for line in chunk.strip().splitlines():
                json.loads(line)
        assert sum(c.count("\n") for c in chunks) == 7

    def test_context_manager_finishes(self):
        rec = SpanRecorder()
        with rec.span("s", trace_id=1):
            pass
        assert rec.finished()

    def test_export_and_load_jsonl(self):
        rec = SpanRecorder(process="exp")
        with rec.span("query", trace_id=derive_trace_id("q"), query_id="q"):
            rec.start(
                "phase:collection", trace_id=derive_trace_id("q")
            ).finish()
        buffer = io.StringIO()
        assert rec.export_jsonl(buffer) == 2
        buffer.seek(0)
        records = list(load_jsonl(buffer))
        assert [r["name"] for r in records] == ["query", "phase:collection"]
        for record in records:
            json.dumps(record)  # plain data, round-trips
            assert record["process"] == "exp"

    def test_reset_rewinds_ids(self):
        rec = SpanRecorder()
        first = rec.start("s", trace_id=1).span.span_id
        rec.reset()
        assert rec.start("s", trace_id=1).span.span_id == first


class TestMergeTimeline:
    def test_orders_across_processes(self):
        trace = derive_trace_id("q")
        ssi = SpanRecorder(process="ssi")
        fleet = SpanRecorder(process="fleet-0")
        ssi.start("phase:collection", trace_id=trace, at=1.0).finish(at=4.0)
        fleet.start("contribution", trace_id=trace, at=2.0).finish(at=3.0)
        fleet.start("unrelated", trace_id=trace + 1, at=0.0).finish(at=9.0)
        out_a, out_b = io.StringIO(), io.StringIO()
        ssi.export_jsonl(out_a)
        fleet.export_jsonl(out_b)
        out_a.seek(0)
        out_b.seek(0)
        records = list(load_jsonl(out_a)) + list(load_jsonl(out_b))
        timeline = merge_timeline(records, f"{trace:016x}")
        assert [(p, n) for _, p, n, _ in timeline] == [
            ("ssi", "phase:collection"),
            ("fleet-0", "contribution"),
        ]
        assert timeline[0][3] == 3.0
        assert timeline[1][3] == 1.0

    def test_orphan_spans_across_processes_survive(self):
        # A child recorded on the fleet whose parent span id belongs to
        # an SSI export we never loaded: still on the timeline.
        trace = f"{derive_trace_id('q'):016x}"
        records = [
            {
                "trace_id": trace,
                "span_id": "00000000000000aa",
                "parent_id": "ffffffffffffffff",  # unknown parent
                "name": "contribution",
                "process": "fleet-0",
                "start": 2.0,
                "end": 3.0,
            },
            {
                "trace_id": trace,
                "span_id": "00000000000000bb",
                "parent_id": None,
                "name": "query",
                "process": "ssi",
                "start": 1.0,
                "end": 4.0,
            },
        ]
        timeline = merge_timeline(records, trace)
        assert [(p, n) for _, p, n, _ in timeline] == [
            ("ssi", "query"),
            ("fleet-0", "contribution"),
        ]

    def test_duplicate_span_ids_from_retried_rpc_deduplicate(self):
        trace = f"{derive_trace_id('q'):016x}"
        base = {
            "trace_id": trace,
            "span_id": "00000000000000aa",
            "name": "rpc:submit",
            "process": "fleet-0",
        }
        records = [
            {**base, "start": 1.0, "end": None},        # abandoned attempt
            {**base, "start": 1.0, "end": 1.5},         # retry, finished
            {**base, "start": 1.0, "end": 1.2},         # earlier partial copy
        ]
        timeline = merge_timeline(records, trace)
        assert len(timeline) == 1
        assert timeline[0][3] == 0.5  # the most complete copy wins
        # Same span id on a *different* process is a different span.
        records.append({**base, "process": "fleet-1", "start": 0.5, "end": 0.6})
        assert len(merge_timeline(records, trace)) == 2

    def test_skewed_clocks_stay_monotone_per_process(self):
        # fleet-1's clock is ~1000s behind; the merged view interleaves
        # oddly but each process's own spans must stay in order.
        trace = f"{derive_trace_id('q'):016x}"
        records = []
        for index in range(5):
            records.append(
                {
                    "trace_id": trace,
                    "span_id": f"a{index:015x}",
                    "name": "s",
                    "process": "ssi",
                    "start": 5000.0 + index,
                    "end": 5000.5 + index,
                }
            )
            records.append(
                {
                    "trace_id": trace,
                    "span_id": f"b{index:015x}",
                    "name": "s",
                    "process": "fleet-1",
                    "start": 4000.0 + index,
                    "end": 4000.5 + index,
                }
            )
        timeline = merge_timeline(records, trace)
        assert len(timeline) == 10
        for process in ("ssi", "fleet-1"):
            starts = [row[0] for row in timeline if row[1] == process]
            assert starts == sorted(starts)

    def test_malformed_and_unfinished_records_never_crash(self):
        trace = f"{derive_trace_id('q'):016x}"
        records = [
            "not a dict",
            {"trace_id": trace},  # no start/name
            {"trace_id": trace, "start": "NaNsense", "name": "x"},
            {"trace_id": trace, "start": 1.0, "name": "open", "end": None},
            {"trace_id": trace, "start": 1.0, "name": "bad-end", "end": "?"},
            # identical start: ties must not compare None durations
            {"trace_id": trace, "start": 1.0, "name": "bad-end", "end": 2.0},
        ]
        timeline = merge_timeline(records, trace)
        names = [n for _, _, n, _ in timeline]
        assert "open" in names and "bad-end" in names
        # the finished copy of the duplicate-free pair kept its duration
        assert any(d == 1.0 for _, _, n, d in timeline if n == "bad-end")


def block_of(count):
    return EncryptedTupleBlock.from_tuples(
        [EncryptedTuple(b"ct%d" % index, b"g") for index in range(count)]
    )


def run_query(protocol, tuples=12, *, duplicate=False):
    """One query through its coordinator, built at the post as both
    engines build it; every partition is answered with one opaque item
    of the kind its stage expects (*duplicate*: and then answered again,
    as a reassignment race does)."""
    ssi = SupportingServerInfrastructure()
    ssi.post_query(envelope("q"))
    coordinator = QueryCoordinator(ssi, "q", QueryMeta(protocol))
    ssi.submit_tuple_block("q", block_of(tuples))
    ssi.close_collection("q")
    while not coordinator.done():
        unit = coordinator.next_work("tds-1", 0.0)
        answer = (unit.partition_id, "tds-1", RESULT_OF[unit.kind], block_of(1))
        coordinator.complete(*answer)
        if duplicate:
            coordinator.complete(*answer)
    return coordinator


def phases_of(spans):
    return [
        (s.name, s.attributes.get("round"), s.attributes.get("count"))
        for s in spans
        if s.name.startswith("phase:")
    ]


class TestQueryLifecycle:
    """A query's phases, as its :class:`QueryCoordinator` records them
    at its own stage transitions."""

    def test_full_phase_sequence(self):
        coordinator = run_query("s_agg", tuples=12)
        spans = RECORDER.by_trace(derive_trace_id("q"))
        assert all(s.end is not None for s in spans)
        root, *phases = spans
        assert root.name == "query"
        assert root.attributes == {"query_id": "q", "protocol": "s_agg"}
        # alpha 3.6 cuts partitions of 4: 12 items, then 3, then finalize
        assert phases_of(phases) == [
            ("phase:collection", None, 12),
            ("phase:aggregation", 0, 12),
            ("phase:aggregation", 1, 3),
            ("phase:filtering", None, 1),
        ]
        assert coordinator.stats.aggregation_rounds == 2
        assert all(s.parent_id == root.span_id for s in phases)
        # the phases tile the root: each starts where the last ended
        assert phases[0].start == root.start and phases[-1].end == root.end
        for before, after in zip(phases, phases[1:]):
            assert after.start == before.end

    def test_transitions_are_idempotent_and_replay_safe(self):
        run_query("s_agg", duplicate=True)
        raced = phases_of(RECORDER.snapshot())
        RECORDER.reset()
        coordinator = run_query("s_agg")
        assert raced == phases_of(RECORDER.snapshot())
        # asking again after the publish, or a stale answer, records nothing
        recorded = len(RECORDER.snapshot())
        assert coordinator.next_work("tds-1", 0.0) is None
        coordinator.complete(0, "tds-1", RESULT_OF[WORK_FOLD], block_of(1))
        assert len(RECORDER.snapshot()) == recorded

    def test_unknown_query_transitions_never_raise(self):
        # The facade's mutations record nothing: a query no coordinator
        # schedules (posted without a protocol row, or replayed from a
        # log) has no spans, whatever happens to it.
        ssi = SupportingServerInfrastructure()
        ssi.post_query(envelope("q"))
        ssi.submit_tuple_block("q", block_of(3))
        ssi.close_collection("q")
        ssi.submit_partials("q", block_of(1))
        ssi.take_partials("q")
        ssi.store_result_rows("q", block_of(1))
        ssi.publish_result("q")
        assert RECORDER.snapshot() == []

    def test_skip_aggregation_protocols(self):
        # basic SELECT...WHERE: collection straight to filtering.
        coordinator = run_query("basic", tuples=5)
        assert phases_of(RECORDER.snapshot()) == [
            ("phase:collection", None, 5),
            ("phase:filtering", None, 5),
        ]
        assert coordinator.stats.aggregation_rounds == 0

    def test_adopt_links_wire_context(self):
        ssi = SupportingServerInfrastructure()
        ssi.post_query(envelope("q"))
        coordinator = QueryCoordinator(ssi, "q", QueryMeta("basic"))
        ctx = TraceContext(trace_id=999, span_id=1234)
        coordinator.adopt(ctx)
        coordinator.adopt(TraceContext(trace_id=5, span_id=6))  # first wins
        ssi.submit_tuple_block("q", block_of(2))
        ssi.close_collection("q")
        unit = coordinator.next_work("tds-1", 0.0)
        coordinator.complete(unit.partition_id, "tds-1", RESULT_ROWS, block_of(2))
        spans = RECORDER.snapshot()
        root = [s for s in spans if s.name == "query"][0]
        assert root.parent_id == 1234
        # every span of the query, the phase open at the adopt included
        assert {s.trace_id for s in spans} == {999}
        assert len(spans) == 3 and all(s.end is not None for s in spans)

    def test_default_recorder_is_module_singleton(self):
        ssi = SupportingServerInfrastructure()
        ssi.post_query(envelope("q"))
        QueryCoordinator(ssi, "q", QueryMeta("ed_hist"))
        spans = RECORDER.snapshot()
        assert [s.name for s in spans] == ["query", "phase:collection"]
        assert all(s.end is None for s in spans)  # collecting
