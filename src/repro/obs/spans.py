"""Query-lifecycle tracing: spans, trace context, and the recorder.

A *span* is a named, timed interval with scalar attributes, grouped by
a 64-bit ``trace_id``.  The protocol phases of the paper map onto a
small span vocabulary used consistently on every process:

* ``query``                      — root, one per query per process
* ``phase:collection``          — tuple collection window
* ``phase:aggregation`` (+``round``) — one span per aggregation round k
* ``phase:filtering``           — the final filtering step
* ``rpc:<op>`` / ``contribution`` / ``partition`` — leaf work units

Cross-process correlation works two ways, by design:

1. **Wire propagation** (exact): a :class:`TraceContext` rides request
   frames as the ``EXT_TRACE`` extension (see ``net/frames.py``), so a
   server span can record its true parent span id.
2. **Derivation** (fallback): :func:`derive_trace_id` hashes the
   ``query_id`` into the same 64-bit id space deterministically, so the
   querier, the SSI and every fleet shard agree on a query's trace id
   *without any propagation* — clients with no context set and offline
   log merging still yield a coherent timeline, just without parent
   links.

Span ids are allocated from a per-process deterministic counter mixed
with the process label, keeping ids unique across a merged multi-
process export while staying reproducible under the simulation's
no-global-RNG discipline (PL005).

Attributes obey the same privacy contract as log fields
(:mod:`repro.obs.logs`): scalars only, bytes redacted to lengths;
PL006 checks attribute names at call sites.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterator, List, Optional, TextIO, Tuple

from repro.obs import metrics as obs_metrics
from repro.obs.logs import sanitize_fields

_SPANS_DROPPED = obs_metrics.REGISTRY.counter(
    "repro_obs_spans_dropped_total",
    "Spans evicted from the recorder ring buffer (oldest-first) because "
    "max_spans was reached.",
)

__all__ = [
    "Span",
    "SpanRecorder",
    "TraceContext",
    "QueryLifecycle",
    "derive_trace_id",
    "load_jsonl",
    "merge_timeline",
    "RECORDER",
    "set_process_label",
]

_MASK64 = (1 << 64) - 1


def derive_trace_id(query_id: str) -> int:
    """Deterministic 64-bit trace id shared by every process for a query."""
    digest = hashlib.blake2b(
        query_id.encode("utf-8"), digest_size=8, person=b"reprotrc"
    ).digest()
    value = int.from_bytes(digest, "big")
    return value or 1  # 0 means "no trace" on the wire


@dataclass(frozen=True)
class TraceContext:
    """What crosses a process boundary: (trace_id, parent span id)."""

    trace_id: int
    span_id: int

    def to_wire(self) -> bytes:
        return self.trace_id.to_bytes(8, "big") + self.span_id.to_bytes(8, "big")

    @classmethod
    def from_wire(cls, raw: bytes) -> Optional["TraceContext"]:
        if len(raw) != 16:
            return None
        trace_id = int.from_bytes(raw[:8], "big")
        span_id = int.from_bytes(raw[8:16], "big")
        if trace_id == 0:
            return None
        return cls(trace_id=trace_id, span_id=span_id)


@dataclass
class Span:
    """A finished or in-flight timed interval."""

    trace_id: int
    span_id: int
    parent_id: int  # 0 = no parent
    name: str
    process: str
    start: float
    end: Optional[float] = None
    attributes: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": f"{self.trace_id:016x}",
            "span_id": f"{self.span_id:016x}",
            "parent_id": f"{self.parent_id:016x}" if self.parent_id else None,
            "name": self.name,
            "process": self.process,
            "start": round(self.start, 6),
            "end": round(self.end, 6) if self.end is not None else None,
            "attributes": self.attributes,
        }


class _SpanHandle:
    """Context-manager handle returned by :meth:`SpanRecorder.span`."""

    __slots__ = ("_recorder", "span")

    def __init__(self, recorder: "SpanRecorder", span: Span) -> None:
        self._recorder = recorder
        self.span = span

    @property
    def context(self) -> TraceContext:
        return TraceContext(trace_id=self.span.trace_id, span_id=self.span.span_id)

    def annotate(self, **attributes: Any) -> None:
        self.span.attributes.update(sanitize_fields(attributes))

    def finish(self, at: Optional[float] = None) -> None:
        self._recorder.finish(self, at=at)

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, *exc: object) -> None:
        self.finish()


class SpanRecorder:
    """Bounded in-memory span ring buffer with a JSONL exporter.

    ``max_spans`` caps memory as a drop-*oldest* ring: a long-lived
    ``serve`` process keeps the most recent window of spans instead of
    freezing the picture at startup.  Evictions increment ``dropped``
    and the ``repro_obs_spans_dropped_total`` counter.  Finishing an
    already-evicted span still works — the handle owns the span object;
    eviction only forgets it from the export set.  The recorder is a
    process-wide singleton in practice (:data:`RECORDER`), reset by
    tests between cases.
    """

    def __init__(self, max_spans: int = 50_000, process: str = "proc") -> None:
        self.max_spans = max_spans
        self.process = process
        self.dropped = 0
        self._spans: Deque[Span] = deque()
        self._lock = threading.Lock()
        self._next_id = 0
        self.enabled = True

    # -- id allocation -------------------------------------------------

    def _allocate_span_id(self) -> int:
        with self._lock:
            self._next_id += 1
            seq = self._next_id
        # Mix the process label in so ids stay unique across a merged
        # multi-process export; deterministic given (process, seq).
        digest = hashlib.blake2b(
            f"{self.process}:{seq}".encode("utf-8"), digest_size=8, person=b"reprospn"
        ).digest()
        return (int.from_bytes(digest, "big") & _MASK64) or 1

    # -- span lifecycle ------------------------------------------------

    def start(
        self,
        name: str,
        *,
        trace_id: int,
        parent_id: int = 0,
        at: Optional[float] = None,
        **attributes: Any,
    ) -> _SpanHandle:
        span = Span(
            trace_id=trace_id,
            span_id=self._allocate_span_id(),
            parent_id=parent_id,
            name=name,
            process=self.process,
            start=time.time() if at is None else at,
            attributes=sanitize_fields(attributes) if attributes else {},
        )
        if self.enabled:
            with self._lock:
                self._spans.append(span)
                while len(self._spans) > self.max_spans:
                    self._spans.popleft()
                    self.dropped += 1
                    _SPANS_DROPPED.inc()
        return _SpanHandle(self, span)

    def span(
        self,
        name: str,
        *,
        trace_id: int,
        parent_id: int = 0,
        **attributes: Any,
    ) -> _SpanHandle:
        """Alias of :meth:`start`; reads better in ``with`` statements."""
        return self.start(name, trace_id=trace_id, parent_id=parent_id, **attributes)

    def finish(self, handle: _SpanHandle, at: Optional[float] = None) -> None:
        if handle.span.end is None:
            handle.span.end = time.time() if at is None else at

    # -- inspection / export -------------------------------------------

    def snapshot(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def finished(self) -> List[Span]:
        return [s for s in self.snapshot() if s.end is not None]

    def by_trace(self, trace_id: int) -> List[Span]:
        return sorted(
            (s for s in self.snapshot() if s.trace_id == trace_id),
            key=lambda s: s.start,
        )

    def reset(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0
            self._next_id = 0

    def export_jsonl_chunks(self, chunk_size: int = 512) -> Iterator[str]:
        """Yield the JSONL export in bounded chunks of whole lines.

        The snapshot is taken once up front (so a concurrent writer
        can't skew the export) but serialization is incremental: the
        ``/spans`` endpoint streams each chunk to the socket instead of
        materializing one giant string for 50k spans.
        """
        spans = self.snapshot()
        for index in range(0, len(spans), max(1, chunk_size)):
            yield "".join(
                json.dumps(span.to_dict(), separators=(",", ":")) + "\n"
                for span in spans[index : index + max(1, chunk_size)]
            )

    def export_jsonl(self, fp: TextIO) -> int:
        """Write one JSON object per span; returns the span count."""
        count = 0
        for chunk in self.export_jsonl_chunks():
            fp.write(chunk)
            count += chunk.count("\n")
        return count


def load_jsonl(fp: TextIO) -> Iterator[Dict[str, Any]]:
    """Parse a span JSONL stream (the inverse of ``export_jsonl``)."""
    for line in fp:
        line = line.strip()
        if line:
            yield json.loads(line)


def merge_timeline(
    records: List[Dict[str, Any]], trace_id_hex: str
) -> List[Tuple[float, str, str, Optional[float]]]:
    """Order one trace's spans as (start, process, name, duration).

    Utility for the CLI/bench timeline reconstruction: feed it records
    loaded from one or more processes' JSONL exports.  Real exports are
    messy — retried RPCs re-emit the same span id, crashes leave spans
    without ``end``, clocks across hosts disagree — so this tolerates
    all of it: malformed records are skipped, duplicate
    ``(process, span_id)`` pairs keep the most complete copy (finished
    beats unfinished, then longer duration), and the result is sorted
    by ``(start, process, name)`` only, which keeps the timeline
    monotone per process even when cross-process clock skew interleaves
    the merged view oddly.
    """
    best: Dict[Any, Tuple[float, str, str, Optional[float]]] = {}
    anonymous = 0
    for rec in records:
        if not isinstance(rec, dict) or rec.get("trace_id") != trace_id_hex:
            continue
        try:
            start = float(rec["start"])
            name = str(rec["name"])
        except (KeyError, TypeError, ValueError):
            continue
        process = str(rec.get("process", "?"))
        end = rec.get("end")
        try:
            duration = (float(end) - start) if end is not None else None
        except (TypeError, ValueError):
            duration = None
        span_id = rec.get("span_id")
        if span_id is None:
            anonymous += 1
            key: Any = ("", anonymous)
        else:
            key = (process, str(span_id))
        row = (start, process, name, duration)
        prior = best.get(key)
        if prior is not None:
            # Retried RPCs export the same span id twice; keep whichever
            # copy carries more information.
            prior_duration = prior[3]
            if duration is None and prior_duration is not None:
                continue
            if (
                duration is not None
                and prior_duration is not None
                and duration <= prior_duration
            ):
                continue
        best[key] = row
    rows = list(best.values())
    # Durations may be None: never let them participate in tie-breaks.
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return rows


class QueryLifecycle:
    """SSI-side phase spans driven by facade calls, one per query.

    The coordinator and the dispatcher both talk to the
    ``SupportingServerInfrastructure`` facade directly, so this is the
    single choke point that sees every phase transition:

    * ``opened``            → ``query`` root + ``phase:collection``
    * ``collection_closed`` → end collection
    * ``partials_submitted``→ open ``phase:aggregation`` round k on the
      first submit after the previous ``take``
    * ``partials_taken``    → close the current aggregation round
    * ``result_stored``     → close aggregation, open ``phase:filtering``
    * ``published``         → close filtering + the root

    The trace id is :func:`derive_trace_id`'s hash of the query id
    unless an exact wire-propagated context (`adopt`) overrides the
    parent link.  All transitions are idempotent: out-of-order or
    repeated facade calls (replays!) never raise from here.
    """

    def __init__(self, recorder: Optional[SpanRecorder] = None) -> None:
        self._recorder = recorder if recorder is not None else RECORDER
        self._roots: Dict[str, _SpanHandle] = {}
        self._phases: Dict[str, _SpanHandle] = {}
        self._rounds: Dict[str, int] = {}
        self._lock = threading.Lock()

    def _root(self, query_id: str) -> _SpanHandle:
        handle = self._roots.get(query_id)
        if handle is None:
            trace_id = derive_trace_id(query_id)
            handle = self._recorder.start(
                "query", trace_id=trace_id, query_id=query_id
            )
            self._roots[query_id] = handle
        return handle

    def _open_phase(self, query_id: str, name: str, **attributes: Any) -> None:
        root = self._root(query_id)
        self._phases[query_id] = self._recorder.start(
            name,
            trace_id=root.span.trace_id,
            parent_id=root.span.span_id,
            **attributes,
        )

    def _close_phase(self, query_id: str) -> None:
        handle = self._phases.pop(query_id, None)
        if handle is not None:
            handle.finish()

    def _phase_name(self, query_id: str) -> Optional[str]:
        handle = self._phases.get(query_id)
        return handle.span.name if handle is not None else None

    # -- transitions ---------------------------------------------------

    def opened(self, query_id: str, *, protocol: Optional[str] = None) -> None:
        with self._lock:
            if query_id in self._roots:
                return
            root = self._root(query_id)
            if protocol is not None:
                root.annotate(protocol=protocol)
            self._open_phase(query_id, "phase:collection")

    def adopt(self, query_id: str, context: Optional[TraceContext]) -> None:
        """Link the query root to a wire-propagated querier span."""
        if context is None:
            return
        with self._lock:
            root = self._roots.get(query_id)
            if root is not None and root.span.parent_id == 0:
                root.span.parent_id = context.span_id
                root.span.trace_id = context.trace_id

    def collection_closed(self, query_id: str, *, collected: int = 0) -> None:
        with self._lock:
            if self._phase_name(query_id) == "phase:collection":
                handle = self._phases[query_id]
                handle.annotate(count=collected)
                self._close_phase(query_id)

    def partials_submitted(self, query_id: str) -> None:
        with self._lock:
            if query_id not in self._roots:
                return
            name = self._phase_name(query_id)
            if name == "phase:collection":
                self._close_phase(query_id)
                name = None
            if name != "phase:aggregation":
                round_index = self._rounds.get(query_id, 0)
                self._open_phase(
                    query_id, "phase:aggregation", round=round_index
                )

    def partials_taken(self, query_id: str, *, count: int = 0) -> None:
        with self._lock:
            if self._phase_name(query_id) == "phase:aggregation":
                handle = self._phases[query_id]
                handle.annotate(count=count)
                self._close_phase(query_id)
                self._rounds[query_id] = self._rounds.get(query_id, 0) + 1

    def result_stored(self, query_id: str, *, rows: int = 0) -> None:
        with self._lock:
            if query_id not in self._roots:
                return
            name = self._phase_name(query_id)
            if name in ("phase:collection", "phase:aggregation"):
                self._close_phase(query_id)
            if self._phase_name(query_id) != "phase:filtering":
                self._open_phase(query_id, "phase:filtering", count=rows)

    def published(self, query_id: str) -> None:
        with self._lock:
            self._close_phase(query_id)
            root = self._roots.pop(query_id, None)
            self._rounds.pop(query_id, None)
            if root is not None:
                root.finish()


#: Process-wide recorder.  The process label defaults to "proc"; entry
#: points call :func:`set_process_label` ("ssi", "fleet-0", "querier")
#: before starting work so merged exports distinguish origins.
RECORDER = SpanRecorder()


def set_process_label(label: str) -> None:
    RECORDER.process = label
