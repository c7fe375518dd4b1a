"""Wire observability surface: frame extensions, stats, tracing.
Every frame speaks the one protocol version; trace context rides the
``EXT_TRACE`` frame extension whenever a client has one set.
"""

import logging
import random

import pytest

from repro.exceptions import ProtocolError
from repro.net import frames
from repro.net.client import AsyncSSIClient
from repro.net.frames import QueryMeta
from repro.net.server import SSIDispatcher
from repro.net.transport import LoopbackTransport
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.obs.logs import JsonFormatter

from .conftest import run_async
from .test_frames import make_envelope


@pytest.fixture(autouse=True)
def reset_obs():
    obs_metrics.REGISTRY.reset()
    obs_spans.RECORDER.reset()
    yield
    obs_metrics.REGISTRY.reset()
    obs_spans.RECORDER.reset()


def loopback_client(dispatcher):
    return AsyncSSIClient(
        LoopbackTransport(dispatcher.dispatch), rng=random.Random(1)
    )


class TestFrameExtensions:
    def test_v4_extension_round_trip(self):
        payload = frames.Writer().blob(b"payload").getvalue()
        body = frames.pack_frame(
            frames.MSG_PING,
            payload,
            7,
            extensions=((frames.EXT_TRACE, b"\x01" * 16), (0x7F, b"xy")),
        )[frames.LENGTH_PREFIX_BYTES :]
        msg_type, corr, exts, reader = frames.unpack_frame_ext(body)
        assert (body[0], msg_type, corr) == (frames.PROTOCOL_VERSION, frames.MSG_PING, 7)
        assert exts == {frames.EXT_TRACE: b"\x01" * 16, 0x7F: b"xy"}
        # The payload reader starts exactly after the extension block.
        assert reader.blob() == b"payload"
        reader.expect_end()

    def test_v4_without_extensions_is_one_byte_overhead(self):
        frame = frames.pack_frame(frames.MSG_PING, b"", 1)
        assert len(frame) == frames.MIN_FRAME_BYTES + 1
        assert frame[-1] == 0  # the empty extension block

    def test_correlation_id_offset_is_version_independent(self):
        # The pipelined transport rewrites the corr id in place at a fixed
        # byte offset; the extension block must sit *after* it.
        framed = bytearray(
            frames.pack_frame(
                frames.MSG_PING, b"p", 1,
                extensions=((frames.EXT_TRACE, b"\x01" * 16),),
            )
        )
        framed[frames.LENGTH_PREFIX_BYTES + 2 : frames.MIN_FRAME_BYTES] = (
            99
        ).to_bytes(4, "big")
        assert frames.peek_correlation_id(bytes(framed)[4:]) == 99
        _, corr, _, _ = frames.unpack_frame_ext(bytes(framed)[4:])
        assert corr == 99

    def test_truncated_extension_block_rejected(self):
        good = frames.pack_frame(
            frames.MSG_PING, b"", 1,
            extensions=((frames.EXT_TRACE, b"\x01" * 16),),
        )[frames.LENGTH_PREFIX_BYTES :]
        with pytest.raises(ProtocolError, match="truncated|missing"):
            frames.unpack_frame_ext(good[:-10])

    def test_duplicate_extension_keeps_first(self):
        body = frames.pack_frame(
            frames.MSG_PING, b"", 1,
            extensions=((1, b"first"), (1, b"second")),
        )[frames.LENGTH_PREFIX_BYTES :]
        _, _, exts, _ = frames.unpack_frame_ext(body)
        assert exts[1] == b"first"

    def test_extension_count_limit(self):
        too_many = tuple((i, b"") for i in range(frames.MAX_EXTENSIONS + 1))
        with pytest.raises(ProtocolError, match="limit"):
            frames.pack_frame(frames.MSG_PING, b"", 1, extensions=too_many)


class TestGetStats:
    def test_stats_round_trip_matches_registry(self):
        async def run():
            client = loopback_client(SSIDispatcher())
            await client.post_query(make_envelope("q-stats"))
            text = await client.get_stats()
            assert "# TYPE repro_ssi_requests_total counter" in text
            assert (
                'repro_ssi_requests_total{msg_type="post_query",outcome="ok"} 1'
                in text
            )
            # Required families are declared at import, so they expose
            # even before first use — the CI scrape check relies on this.
            for family in (
                "repro_ssi_request_seconds",
                "repro_ssi_replays_total",
                "server_internal_errors_total",
                "repro_ssi_connections_open",
            ):
                assert f"# TYPE {family}" in text

        run_async(run())

    def test_stats_same_serialization_as_http_endpoint(self):
        async def run():
            client = loopback_client(SSIDispatcher())
            await client.ping()
            wire_text = await client.get_stats()
            http_text = obs_metrics.REGISTRY.render_prometheus()
            # Identical modulo counters that moved between the renders
            # (the get_stats request itself); compare family structure.
            def families(text):
                return [l for l in text.splitlines() if l.startswith("#")]

            assert families(wire_text) == families(http_text)

        run_async(run())


class TestTracePropagation:
    """The query's coordinator records its root span on the SSI; a
    query posted with a protocol row gets one."""

    def test_trace_context_rides_ext_and_links_lifecycle(self):
        dispatcher = SSIDispatcher()
        ctx = obs_spans.TraceContext(trace_id=0xDEADBEEF, span_id=0x1234)
        obs_spans.RECORDER.reset()

        async def run():
            client = loopback_client(dispatcher)
            client.set_trace_context(ctx)
            await client.post_query(
                make_envelope("q-traced"), meta=QueryMeta("s_agg")
            )

        run_async(run())
        spans = obs_spans.RECORDER.snapshot()
        roots = [s for s in spans if s.name == "query"]
        assert len(roots) == 1
        assert roots[0].trace_id == ctx.trace_id
        assert roots[0].parent_id == ctx.span_id
        # the phase in progress moved to the querier's trace with it
        assert {s.trace_id for s in spans} == {ctx.trace_id}

    def test_client_without_trace_context_still_gets_derived_trace(self):
        dispatcher = SSIDispatcher()
        obs_spans.RECORDER.reset()

        async def run():
            client = loopback_client(dispatcher)  # no set_trace_context()
            await client.post_query(
                make_envelope("q-derived"), meta=QueryMeta("s_agg")
            )

        run_async(run())
        trace = obs_spans.derive_trace_id("q-derived")
        spans = obs_spans.RECORDER.by_trace(trace)
        assert [s.name for s in spans] == ["query", "phase:collection"]
        assert spans[0].attributes["protocol"] == "s_agg"


class TestInternalErrorContext:
    """Satellite: ERR_INTERNAL answers carry query context in the log."""

    def test_structured_log_has_context_and_no_ciphertext(self, monkeypatch):
        dispatcher = SSIDispatcher()
        records = []

        class _Capture(logging.Handler):
            def emit(self, record):
                records.append(record)

        server_logger = logging.getLogger("repro.net.server")
        handler = _Capture()
        server_logger.addHandler(handler)
        server_logger.setLevel(logging.ERROR)

        def boom(*a, **k):
            raise RuntimeError("internal invariant broken")

        monkeypatch.setattr(dispatcher.ssi, "submit_tuple_block", boom)
        ciphertext = b"\x13SUPER-SECRET-TUPLE-BYTES\x37"

        async def run():
            client = loopback_client(dispatcher)
            await client.post_query(make_envelope("q-err"))
            before = obs_metrics.REGISTRY.snapshot()[
                "server_internal_errors_total"
            ]
            with pytest.raises(ProtocolError, match="internal server error"):
                from repro.core.messages import EncryptedTuple

                await client.submit_tuples_batch(
                    "q-err", [EncryptedTuple(payload=ciphertext, group_tag=None)]
                )
            return before

        try:
            run_async(run())
        finally:
            server_logger.removeHandler(handler)

        snap = obs_metrics.REGISTRY.snapshot()["server_internal_errors_total"]
        assert snap[(("msg_type", "submit_tuples_batch"),)] >= 1.0
        (record,) = records
        assert record.repro_event == "server_internal_error"
        assert record.repro_fields["query_id"] == "q-err"
        assert record.repro_fields["msg_type"] == "submit_tuples_batch"
        assert isinstance(record.repro_fields["corr_id"], int)
        formatted = JsonFormatter().format(record)
        assert "SUPER-SECRET-TUPLE-BYTES" not in formatted
        assert ciphertext.hex() not in formatted
        assert '"query_id":"q-err"' in formatted
        assert '"exc_type":"RuntimeError"' in formatted
