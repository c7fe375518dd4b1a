"""The SSI as a network service.

:class:`SSIDispatcher` maps wire requests onto one
:class:`~repro.ssi.server.SupportingServerInfrastructure` (plus the
per-query :class:`~repro.net.coordinator.QueryCoordinator` for fleet-mode
queries).  It is transport-agnostic: the in-memory loopback transport
calls :meth:`SSIDispatcher.dispatch` directly, and :class:`SSIServer`
exposes the same dispatcher over TCP.

Trust boundary: this module is ``ssi``-role under the privacy lint — it
may never name plaintext rows, key material or TDS internals.  Everything
it handles is a ciphertext blob, a partition id or paper-sanctioned
cleartext (SIZE clause, credentials, protocol shape).

Error discipline: SSI-side failures are mapped to *typed* wire error
codes; Python tracebacks never cross the transport.

Writes: a contribution is applied in the call that accepted it, so a
read sees every acked write, and the covering result and the observer
log are both the arrival order.
With a store, the mutation is journaled before it is applied, and which
acks wait for the disk is the ``durable`` column of :mod:`repro.net.ops`:
the ack of a journaled request (post, contribution, close) waits until the
last durable record anyone appended is synced — a replay must not
overtake its original — and the ack of ``await_work`` or
``submit_partition_result`` only for durable records its own handling
appended; partials are journaled and not waited for (recovery recomputes
them).  Overload lands on the peer's socket: :class:`SSIServer` bounds
the handlers per connection and stops reading while they are all busy.

Waiting: a TDS with nothing to do and a querier whose result is not out
yet leave one request *parked* here (``await_work`` / ``await_result``)
instead of asking again on a timer.  The request that changes what a
parked request waits for releases it; DESIGN.md §7 "Waiting for work"
has the rules.

Who may ask for what: the rows of :mod:`repro.net.ops` that have an
opcode are the whole remote surface.  Partitioning, partials and
publication are the per-query coordinator's, so a query posted without
a protocol row (empty ``QueryMeta``) is collected and counted, never
scheduled and never published.
"""

from __future__ import annotations

import asyncio
import dataclasses
import inspect
import logging
import time
import weakref
from collections import OrderedDict
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Collection,
    NamedTuple,
    Protocol,
    TypeVar,
    cast,
)

if TYPE_CHECKING:  # repro.store imports this module's siblings; keep lazy
    from repro.obs.health import HealthMonitor
    from repro.store.recovery import DurableStore
    from repro.store.snapshot import SnapshotState

from repro.core.messages import EncryptedTupleBlock, QueryEnvelope, QueryResult
from repro.exceptions import (
    FrameTooLargeError,
    ProtocolError,
    UnknownQueryError,
    UnsupportedVersionError,
)
from repro.net import frames, ops
from repro.net.coordinator import QueryCoordinator
from repro.net.frames import QueryMeta, WorkUnit, Writer
from repro.obs import logs as obs_logs
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.ssi.admission import AdmissionController, AdmissionPolicy
from repro.ssi.idempotency import IdempotencyWindow
from repro.ssi.server import SupportingServerInfrastructure

logger = logging.getLogger(__name__)

# --------------------------------------------------------------------- #
# instruments (declared once at import; children resolved up front so
# the dispatch hot path is a plain `+=`)
# --------------------------------------------------------------------- #
_REQUESTS = obs_metrics.REGISTRY.counter(
    "repro_ssi_requests_total",
    "Requests dispatched by the SSI, by message type and outcome.",
    ("msg_type", "outcome"),
)
_REQUEST_SECONDS = obs_metrics.REGISTRY.histogram(
    "repro_ssi_request_seconds",
    "Wall time spent inside SSIDispatcher.dispatch, by message type.",
    ("msg_type",),
)
_REPLAYS = obs_metrics.REGISTRY.counter(
    "repro_ssi_replays_total",
    "Mutating requests dropped as idempotent replays.",
)
_INTERNAL_ERRORS = obs_metrics.REGISTRY.counter(
    "server_internal_errors_total",
    "Unhandled exceptions answered as ERR_INTERNAL, by message type.",
    ("msg_type",),
)
_FRAMES = obs_metrics.REGISTRY.counter(
    "repro_ssi_frames_total",
    "Frames crossing SSI TCP connections, by direction.",
    ("direction",),
)
_BYTES = obs_metrics.REGISTRY.counter(
    "repro_ssi_bytes_total",
    "Bytes crossing SSI TCP connections (incl. length prefix), by direction.",
    ("direction",),
)
_CONNECTIONS_OPEN = obs_metrics.REGISTRY.gauge(
    "repro_ssi_connections_open",
    "Currently open SSI TCP connections.",
)
_INFLIGHT = obs_metrics.REGISTRY.gauge(
    "repro_ssi_inflight_requests",
    "Requests currently being handled across all connections.",
)

_PARKED = obs_metrics.REGISTRY.gauge(
    "repro_ssi_parked_requests",
    "await_work / await_result requests currently parked (a subset of "
    "the in-flight ones).",
)

_c_replays = _REPLAYS.labels()


_ChildT = TypeVar("_ChildT")


class _Labelled(Protocol[_ChildT]):
    def labels(self, **labels: str) -> _ChildT: ...


def _per_name(metric: _Labelled[_ChildT], **fixed: str) -> Callable[[str], _ChildT]:
    """Lazily cache one labelled child per message-type name.

    ``labels(**kwargs)`` costs ~1.7µs (key build + validation); at
    dispatch rates that is measurable, so the ok/latency instruments on
    the hot path resolve their child through a plain dict instead."""
    cache: dict[str, _ChildT] = {}

    def resolve(name: str) -> _ChildT:
        child = cache.get(name)
        if child is None:
            child = cache[name] = metric.labels(msg_type=name, **fixed)
        return child

    return resolve


_req_ok = _per_name(_REQUESTS, outcome="ok")
_req_seconds = _per_name(_REQUEST_SECONDS)
_c_frames_in = _FRAMES.labels(direction="in")
_c_frames_out = _FRAMES.labels(direction="out")
_c_bytes_in = _BYTES.labels(direction="in")
_c_bytes_out = _BYTES.labels(direction="out")
_g_connections = _CONNECTIONS_OPEN.labels()
_g_inflight = _INFLIGHT.labels()
_g_parked = _PARKED.labels()

#: ceiling on the hold a parking request may name, well below
#: ``SSIServer.read_timeout`` so a parked connection never looks idle
MAX_HOLD_SECONDS = 10.0

#: parked requests, oldest first; the value says nothing
_Waiters = OrderedDict["asyncio.Future[bool]", None]

#: the failures answered with their own wire error code
_TYPED_ERRORS = tuple(frames.ERROR_TYPES.values())


class _Call(NamedTuple):
    """What the handler of an idempotent operation gets besides the
    decoded fields: the row it serves, the request's idempotency key,
    and the raw request bytes after that key — byte-identical to the
    operation's WAL record payload (the codec is canonical), so the hot
    path journals without a second pass over the payload."""

    op: ops.Op[Any]
    key: tuple[str, int]
    wire: memoryview


class _Hold:
    """What the handler of a parking operation (last request field
    ``ops.HOLD``) gets besides the decoded fields, and reports back
    through: the seconds it spent parked — not handling time, so not
    observed as such — and whether its own evaluations appended a
    durable WAL record (others append plenty while it is parked)."""

    __slots__ = ("parked", "appended")

    def __init__(self) -> None:
        self.parked = 0.0
        self.appended = False


def _expire(future: "asyncio.Future[bool]") -> None:
    """A parked request's hold ran out: wake it to answer empty."""
    if not future.done():
        future.set_result(False)


def _release(waiters: _Waiters, count: int) -> None:
    """Wake the *count* oldest parked requests of *waiters*.  Costs what
    it releases, however many are parked behind them."""
    while count > 0 and waiters:
        future, _ = waiters.popitem(last=False)
        if not future.done():  # else its hold expired this very tick
            future.set_result(True)
            count -= 1


def _deadline_passed(
    ref: "weakref.ref[SSIDispatcher]", delay: float, clause: str | None
) -> None:
    """Timer half of :meth:`SSIDispatcher._wake_at`.  Weak: a pending
    deadline must not keep a dispatcher nobody serves any more — and
    every ciphertext it stores — alive until it fires."""
    dispatcher = ref()
    if dispatcher is None:
        return
    if clause is not None:
        # At its own deadline, not at the clock read again: that may
        # come out an ulp short, or the timer may run a clock tick
        # early, and nothing would evaluate the clause again.
        dispatcher.ssi.evaluate_size_clause(clause, delay)
    dispatcher._release_assignable()


class SSIDispatcher:
    """Decode request frames, execute them against the SSI, encode the
    response.  One dispatcher instance == one logical SSI."""

    def __init__(
        self,
        ssi: SupportingServerInfrastructure | None = None,
        *,
        partition_timeout: float = 5.0,
        clock: Callable[[], float] | None = None,
        admission: AdmissionPolicy | None = None,
    ) -> None:
        self.ssi = ssi if ssi is not None else SupportingServerInfrastructure()
        #: per-querier quotas; the default policy enforces nothing, so a
        #: dispatcher built without one behaves exactly as before
        self.admission = AdmissionController(admission)
        #: every fleet-mode query this dispatcher ever scheduled (tests
        #: and the benchmark read ``.stats`` off finished ones)
        self.coordinators: dict[str, QueryCoordinator] = {}
        #: the unfinished ones, oldest first: what a request for work
        #: walks, so it costs the live queries and not the history
        self._live: dict[str, QueryCoordinator] = {}
        #: parked await_work requests, and await_result ones per query
        self._parked_work: _Waiters = OrderedDict()
        self._result_waiters: dict[str, _Waiters] = {}
        #: set by :meth:`release_parked`: answer at once, park nothing
        self._draining = False
        #: durable store, when serving with ``--data-dir`` (see
        #: :meth:`with_store`); None keeps the in-memory behaviour
        self.store: "DurableStore | None" = None
        #: live health monitor, set by the serve entry point; None
        #: answers MSG_GET_HEALTH with monitored=False
        self.health: "HealthMonitor | None" = None
        self.partition_timeout = partition_timeout
        self._clock_starts: dict[str, float] = {}
        self._clock = clock
        #: exactly-once application of keyed requests (journaled with
        #: every keyed WAL record, captured in snapshots)
        self.idempotency = IdempotencyWindow()

    # ------------------------------------------------------------------ #
    def _now(self) -> float:
        if self._clock is not None:
            return self._clock()
        return asyncio.get_running_loop().time()

    # ------------------------------------------------------------------ #
    # durability (repro.store)
    # ------------------------------------------------------------------ #
    @classmethod
    def with_store(cls, store: "DurableStore", **kwargs: object) -> "SSIDispatcher":
        """Build a dispatcher serving the recovered state of *store*.

        Resumes every live query: for fleet-mode queries not yet
        published, discards any half-round aggregation leftovers
        (journaled as a reset record so a second crash replays the same
        clear) and rebuilds a coordinator that re-runs aggregation from
        the durable covering result — the coordinator's partition
        trackers died with the process, and merging is associative, so
        recomputing is always correct.  An elapsed-time SIZE clause
        starts its clock again at the first request that evaluates it
        after the restart (:meth:`_clock_start`).
        """
        recovered = store.recovered
        dispatcher = cls(recovered.ssi, **kwargs)  # type: ignore[arg-type]
        dispatcher.idempotency.restore(*recovered.idempotency.snapshot())
        # Journal from here on: recovery replayed with journaling off.
        recovered.ssi.journal = store.journal
        for query_id, storage in recovered.ssi.storage_map().items():
            # Re-own recovered queries so per-querier quotas survive a
            # restart (published ones prune lazily at the next admit).
            dispatcher.admission.register_query(
                query_id, storage.envelope.credential.subject
            )
            meta = storage.meta
            if meta is None or not meta.protocol:
                continue  # no protocol row: collected, never scheduled
            if storage.result_ready:
                continue  # published: nothing left to schedule
            if storage.partials or storage.result_rows:
                recovered.ssi.reset_aggregation(query_id)
            dispatcher._schedule(query_id, meta)
        dispatcher.store = store
        return dispatcher

    def capture_state(self) -> "SnapshotState":
        """One consistent view of the dispatcher's durable state, for
        the store's snapshot writer.  Runs synchronously (no awaits
        between a mutation and its journal record), so what it sees
        always matches the WAL prefix written so far.  Each record's
        block lists are copied: the file is written off the loop while
        requests keep appending to the live ones."""
        from repro.store.snapshot import SnapshotState

        queries = [
            dataclasses.replace(
                storage,
                collected_blocks=list(storage.collected_blocks),
                partials=list(storage.partials),
                result_rows=list(storage.result_rows),
            )
            for storage in self.ssi.storage_map().values()
        ]
        applied_seq, applied_ahead = self.idempotency.snapshot()
        return SnapshotState(
            applied_seq=applied_seq, applied_ahead=applied_ahead, queries=queries
        )

    async def dispatch(self, body: bytes) -> bytes:
        """One request frame body in, one response frame out.  The
        request's row in :mod:`repro.net.ops` says how to decode it,
        what to run and how to encode the answer.  Responses echo the
        request's correlation id so a pipelining client routes them; a
        body too malformed to carry an id answers on the
        connection-scoped id 0."""
        started = time.perf_counter()
        try:
            msg_type, corr, exts, reader = frames.unpack_frame_ext(body)
        except ProtocolError as exc:
            code = (
                frames.ERR_UNSUPPORTED_VERSION
                if isinstance(exc, UnsupportedVersionError)
                else frames.ERR_MALFORMED
            )
            outcome = "malformed" if code == frames.ERR_MALFORMED else f"err_{code}"
            _REQUESTS.labels(msg_type="unparsed", outcome=outcome).inc()
            return frames.pack_error(
                code, str(exc), frames.peek_correlation_id(body)
            )
        op = ops.BY_OPCODE.get(msg_type)
        if op is None:
            _REQUESTS.labels(
                msg_type=f"0x{msg_type:02x}", outcome="unknown_op"
            ).inc()
            return frames.pack_error(
                frames.ERR_UNKNOWN_OP,
                f"unknown request type 0x{msg_type:02x}",
                corr,
            )
        name = op.name
        held = _Hold() if op.request and op.request[-1] is ops.HOLD else None
        trace = obs_spans.TraceContext.from_wire(exts[frames.EXT_TRACE]) \
            if frames.EXT_TRACE in exts else None
        store = self.store
        durable_before = store.journal.durable_seq if store is not None else 0
        #: the query this request targets, for error context and tracing
        query_id: str | None = None
        try:
            key = ops.IDEM.read(reader) if op.idem else None
            mark = reader.mark()
            args = op.read_request(reader)
            if op.request and op.request[0] is ops.QUERY_ID:
                query_id = args[0]
            elif op.request and op.request[0] is ops.ENVELOPE:
                query_id = args[0].query_id
            result: Any = None
            if key is not None and self.idempotency.seen(*key):
                _c_replays.inc()
            elif op.handler:
                handler = getattr(self, op.handler)
                if key is not None:
                    result = handler(_Call(op, key, reader.since(mark)), *args)
                elif held is not None:
                    result = handler(held, *args)
                else:
                    result = handler(*args)
            elif op.method:
                result = getattr(self.ssi, op.method)(*args)
            if query_id is not None and held is None:
                self._settle(query_id)
            # Whether this request's own synchronous handling appended
            # a durable record: only then has its ack a head to attest
            # and, unless it is a journaled request, anything to wait for.
            appended = (
                store is not None
                and store.journal.durable_seq != durable_before
            )
            if inspect.iscoroutine(result):
                result = await result
            if held is not None and held.appended:
                appended = True
            w = Writer()
            op.response.write(w, result)
            payload = w.getvalue()
        except _TYPED_ERRORS as exc:
            code = next(
                code
                for code, exc_type in frames.ERROR_TYPES.items()
                if isinstance(exc, exc_type)
            )
            _REQUESTS.labels(msg_type=name, outcome=f"err_{code}").inc()
            return frames.pack_error(
                code,
                str(exc),
                corr,
                retry_after=getattr(exc, "retry_after", 0.0),
            )
        except ProtocolError as exc:
            # Includes payload-decoding failures: report them as malformed
            # rather than internal.
            _REQUESTS.labels(msg_type=name, outcome="malformed").inc()
            return frames.pack_error(frames.ERR_MALFORMED, str(exc), corr)
        except Exception:
            # Never leak a traceback across the transport (satellite).
            # The structured log carries the request's query context —
            # query_id/corr_id/msg_type — so the failing query is
            # identifiable from the SSI log alone; the redaction layer
            # guarantees no request bytes reach the record.
            _INTERNAL_ERRORS.labels(msg_type=name).inc()
            obs_logs.log_event(
                logger,
                "server_internal_error",
                level=logging.ERROR,
                exc_info=True,
                query_id=query_id,
                corr_id=corr,
                msg_type=name,
            )
            return frames.pack_error(
                frames.ERR_INTERNAL, "internal server error (see SSI logs)", corr
            )
        finally:
            elapsed = time.perf_counter() - started
            if held is not None:
                elapsed -= held.parked
            _req_seconds(name).observe(elapsed)
        _req_ok(name).inc()
        if trace is not None and query_id in self.coordinators:
            # Exact cross-process parent link for wire-propagated traces;
            # clients without a trace context get the derived trace id.
            self.coordinators[query_id].adopt(trace)
        extensions: tuple[tuple[int, bytes], ...] = ()
        if store is not None and op.durable:
            # The two kinds of durable ack (``ops.Op``): a journaled
            # request waits for the last durable record anyone appended,
            # any other only for its own.  The head is read in the loop
            # step that appended (no await since the handler returned;
            # only an await_work that appended and then parked reads a
            # later one) and the ack waits for the count it attests, so
            # no head leaves covering a neighbour's unsynced record.
            upto = store.journal.durable_seq if op.record else 0
            if appended:
                commitment = store.commitment()
                extensions = (
                    (frames.EXT_COMMITMENT, commitment.to_wire()),
                )
                upto = commitment.count
            await store.sync(upto)
            await store.maybe_snapshot(self.capture_state)
        return frames.pack_frame(frames.MSG_OK, payload, corr, extensions)

    # ------------------------------------------------------------------ #
    # handlers the op table names (everything not "call the facade")
    # ------------------------------------------------------------------ #
    def _get_stats(self) -> str:
        # The one canonical serialization: the same Prometheus text the
        # --metrics-port endpoint serves, so the two surfaces can never
        # disagree about a counter.
        return obs_metrics.REGISTRY.render_prometheus()

    def _get_health(self) -> tuple[int, float, float, list[str]] | None:
        # Payload mirrors /healthz: a verdict drawn from a fixed reason
        # vocabulary plus loop-lag/window scalars — nothing derived from
        # request payloads, per PL006.
        if self.health is None:
            return None
        verdict = self.health.verdict()
        return (
            verdict.status,
            verdict.eventloop_lag,
            verdict.window_seconds,
            list(verdict.reasons[:16]),
        )

    def _post_query(
        self,
        call: _Call,
        envelope: QueryEnvelope,
        tds_id: str | None,
        meta: QueryMeta,
    ) -> None:
        # The row's check first, before admission, the journal or any
        # side effect: a refused meta answers ERR_MALFORMED and leaves
        # the key unmarked.
        meta.check()
        # Admission gate: after the replay check (a replayed post was
        # already admitted once) and before any side effect, so a
        # rejected post leaves its seq unapplied and the client's
        # retry is executed, not dropped.
        self.admission.admit_query(
            envelope.credential.subject, self.ssi.result_ready
        )
        self._apply(call, self.ssi.post_query, envelope, tds_id, meta)
        self.admission.register_query(
            envelope.query_id, envelope.credential.subject
        )
        if meta.protocol:
            self._schedule(envelope.query_id, meta)
            self._clock_start(envelope)
            # every waiting device has a query to contribute to, or (a
            # personal post) one of them has: the others park again
            _release(self._parked_work, len(self._parked_work))
        self.idempotency.mark(*call.key)

    def _fetch_query(self, query_id: str) -> tuple[QueryEnvelope, QueryMeta]:
        storage = self.ssi.query(query_id)
        return storage.envelope, storage.meta or QueryMeta()

    def _apply(
        self, call: _Call, mutation: Callable[..., None], *args: Any, **kwargs: Any
    ) -> None:
        """Run the facade *mutation* of a keyed request.  With a store
        attached, the key is armed just before it (the mutation's WAL
        record journals it) and cleared right after, applied or not: a
        mutation the SSI refuses or drops without journaling — a
        duplicate post, a contribution that arrived after the collection
        closed — must not leak its key into the next record."""
        journal = self.store.journal if self.store is not None else None
        if journal is not None:
            journal.set_idem(*call.key)
        try:
            mutation(*args, **kwargs)
        finally:
            if journal is not None:
                journal.clear_idem()

    def _submit(
        self, call: _Call, query_id: str, block: EncryptedTupleBlock
    ) -> None:
        """A contribution, applied in the call that accepted it and
        marked once applied: a mutation that raised leaves its key
        unmarked, so the client's retry (same bytes) is executed, not
        acked as a replay.  The poster's byte quota is
        charged by wire size — the SSI's sanctioned view of a ciphertext
        — around the apply: an over-quota charge raises before any side
        effect, and the charge is returned whether or not the apply went
        through."""
        storage = self.ssi.query(query_id)  # typed error for unknown ids
        nbytes = len(call.wire)
        self.admission.charge(query_id, nbytes)
        try:
            self._apply(
                call, self.ssi.submit_tuple_block, query_id, block, wire=call.wire
            )
        finally:
            self.admission.release(query_id, nbytes)
        self.idempotency.mark(*call.key)
        if storage.tds_id is not None and query_id in self.coordinators:
            # §3.1: a personal query addresses one TDS, and its one
            # contribution is the whole collection
            self.ssi.close_collection(query_id)
        self._auto_close(query_id)

    def _submit_partition_result(
        self,
        query_id: str,
        partition_id: int,
        tds_id: str,
        result: tuple[int, EncryptedTupleBlock],
    ) -> None:
        coordinator = self.coordinators.get(query_id)
        if coordinator is None:
            raise UnknownQueryError(
                f"query {query_id!r} has no server-side coordinator"
            )
        coordinator.complete(partition_id, tds_id, *result)

    # ------------------------------------------------------------------ #
    # waiting for work and for results (DESIGN §7 "Waiting for work")
    # ------------------------------------------------------------------ #
    async def _await_work(
        self, held: _Hold, tds_id: str, known: list[str], hold: float
    ) -> tuple[list[tuple[QueryEnvelope, QueryMeta]], WorkUnit | None, list[str]]:
        """Answer with what the SSI has for this device — queries it
        does not hold yet, one partition, the ids it holds that are
        finished — or park until there is something, at most *hold*
        seconds.  Level-triggered: whoever is woken evaluates its own
        answer again and parks again when someone else took the work."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + max(0.0, min(hold, MAX_HOLD_SECONDS))
        held_ids = dict.fromkeys(known)  # O(1) lookups, the request's order
        journal = self.store.journal if self.store is not None else None
        while True:
            before = journal.durable_seq if journal is not None else 0
            answer = self._work_for(tds_id, held_ids)
            if journal is not None and journal.durable_seq != before:
                held.appended = True
            remaining = deadline - loop.time()
            if any(answer) or self._draining or remaining <= 0:
                return answer
            await self._park(self._parked_work, remaining, held)

    def _work_for(
        self, tds_id: str, known: Collection[str]
    ) -> tuple[list[tuple[QueryEnvelope, QueryMeta]], WorkUnit | None, list[str]]:
        now = self._now()
        queries: list[tuple[QueryEnvelope, QueryMeta]] = []
        unit: WorkUnit | None = None
        for query_id, coordinator in list(self._live.items()):
            self._auto_close(query_id)
            if unit is None:
                unit = self._next_work(coordinator, tds_id, now)
                if coordinator.done():
                    self._retire(query_id)
                    continue
            if query_id in known:
                continue
            storage = self.ssi.query(query_id)
            if storage.tds_id in (None, tds_id) and not storage.collection_closed:
                queries.append((storage.envelope, coordinator.meta))
        # Finished queries are not broadcast: a device learns of them
        # from the next answer it gets anyway.
        done = [query_id for query_id in known if query_id not in self._live]
        return queries, unit, done

    async def _await_result(
        self, held: _Hold, query_id: str, hold: float
    ) -> QueryResult | None:
        """The published result of *query_id*, or None once *hold*
        seconds passed without one; parked in between, released by the
        request that publishes."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + max(0.0, min(hold, MAX_HOLD_SECONDS))
        while True:
            if self.ssi.result_ready(query_id):  # typed error for unknown ids
                return self.ssi.fetch_result(query_id)
            remaining = deadline - loop.time()
            if self._draining or remaining <= 0:
                return None
            waiters = self._result_waiters.setdefault(query_id, OrderedDict())
            try:
                await self._park(waiters, remaining, held)
            finally:
                if not waiters and self._result_waiters.get(query_id) is waiters:
                    del self._result_waiters[query_id]

    async def _park(self, waiters: _Waiters, timeout: float, held: _Hold) -> None:
        """Wait in *waiters* for a release or for *timeout*.  The caller
        registers in the same step in which it found nothing to answer,
        so no release can fall between the two."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future[bool] = loop.create_future()
        waiters[future] = None
        timer = loop.call_later(timeout, _expire, future)
        _g_parked.inc()
        started = time.perf_counter()
        try:
            await future
        except asyncio.CancelledError:
            if future.done() and not future.cancelled() and future.result():
                # Released, then gone (its connection dropped) before it
                # could ask again: the release goes to the next in line.
                _release(waiters, 1)
            raise
        finally:
            timer.cancel()
            waiters.pop(future, None)
            _g_parked.dec()
            held.parked += time.perf_counter() - started

    def _next_work(
        self, coordinator: QueryCoordinator, tds_id: str, now: float
    ) -> WorkUnit | None:
        unit = coordinator.next_work(tds_id, now)
        if unit is not None:
            # if this device goes silent, the partition becomes
            # assignable again at its deadline with everyone else parked
            self._wake_at(coordinator.partition_timeout)
        return unit

    def _wake_at(self, delay: float, clause: str | None = None) -> None:
        """Time alone will make work assignable *delay* seconds from now
        (a partition deadline, or the ``SIZE … SECONDS`` clause of the
        query *clause*, closed then): release parked devices for it
        then."""
        asyncio.get_running_loop().call_later(
            delay, _deadline_passed, weakref.ref(self), delay, clause
        )

    def _release_assignable(self) -> None:
        if not self._parked_work:
            return  # whoever asks next evaluates for itself
        now = self._now()
        count = 0
        for query_id, coordinator in list(self._live.items()):
            self._auto_close(query_id)
            count += coordinator.assignable(now)
            if coordinator.done():
                self._retire(query_id)
        _release(self._parked_work, count)

    def _settle(self, query_id: str) -> None:
        """After a request that touched *query_id*: release what it made
        answerable — as many parked devices as its coordinator can now
        hand partitions to, and the queriers waiting for a result it
        published."""
        coordinator = self._live.get(query_id)
        if coordinator is None:
            return
        if self._parked_work:
            _release(self._parked_work, coordinator.assignable(self._now()))
        if coordinator.done():
            self._retire(query_id)

    def _retire(self, query_id: str) -> None:
        """The query is published: off the live index, waiters out."""
        self._live.pop(query_id, None)
        waiters = self._result_waiters.pop(query_id, None)
        if waiters:
            _release(waiters, len(waiters))

    def release_parked(self) -> None:
        """Shutdown: answer every parked request now (empty unless its
        answer just arrived) and park none from here on."""
        self._draining = True
        for waiters in (self._parked_work, *self._result_waiters.values()):
            _release(waiters, len(waiters))

    def _schedule(self, query_id: str, meta: QueryMeta) -> None:
        coordinator = QueryCoordinator(
            self.ssi, query_id, meta, partition_timeout=self.partition_timeout
        )
        self.coordinators[query_id] = coordinator
        self._live[query_id] = coordinator

    async def _get_commitment(
        self, check: tuple[int, bytes] | None
    ) -> tuple[int, bytes, bytes | None] | None:
        store = self.store
        if store is None:
            return None  # serving in-memory: nothing to attest
        if check is not None and check[0] < 0:
            raise ProtocolError(f"invalid commitment count {check[0]} in check")
        # The head reported must be on disk before it leaves.
        current = store.commitment()
        await store.sync(current.count)
        # Inclusion proof for the client's last observed commitment: the
        # head our chain had at that count.  None means the chain is
        # *shorter* than the client saw — the rollback the client is
        # probing for.
        proof = store.head_at(check[0]) if check is not None else None
        return current.count, current.head, proof

    def _auto_close(self, query_id: str) -> None:
        """Fleet-mode queries with a SIZE clause close on the server's
        clock (the paper's SSI evaluates SIZE, §3.1)."""
        if query_id not in self.coordinators:
            return
        if self.ssi.collection_closed(query_id):
            return
        envelope = self.ssi.envelope(query_id)
        if envelope.size_tuples is None and envelope.size_seconds is None:
            return
        started = self._clock_start(envelope)
        self.ssi.evaluate_size_clause(query_id, self._now() - started)

    def _clock_start(self, envelope: QueryEnvelope) -> float:
        """When this dispatcher first held the fleet-mode query of
        *envelope*: at its post, or — recovered from a store — at the
        first evaluation of its SIZE clause.  Whichever came first also
        armed the one wake-up a ``SIZE … SECONDS`` clause needs."""
        started = self._clock_starts.get(envelope.query_id)
        if started is None:
            started = self._clock_starts[envelope.query_id] = self._now()
            if envelope.size_seconds is not None:
                self._wake_at(envelope.size_seconds, envelope.query_id)
        return started


class _Connection(asyncio.Protocol):
    """One accepted connection of an :class:`SSIServer`.

    ``data_received`` cuts request frames out of the receive buffer and
    starts one task per request; the task writes its response when its
    dispatch returns, so responses leave in completion order.  Two
    limits, both felt by the peer on its socket: while
    ``max_concurrent_requests`` handlers run, reading is paused (the
    buffer then holds one receive and the partial frame before it, no
    more), and while the peer is not reading its responses a handler
    keeps its slot, and its response, until the write buffer drains.
    One timer per connection enforces ``read_timeout``."""

    def __init__(self, server: "SSIServer") -> None:
        self._server = server
        self._loop = asyncio.get_running_loop()
        self._cutter = frames.FrameCutter(server.max_frame_bytes)
        self._transport: asyncio.Transport | None = None
        self._tasks: set[asyncio.Task[None]] = set()
        #: reading is paused because every handler slot is taken
        self._full = False
        #: pending while the peer is not reading its responses
        self._drained: asyncio.Future[None] | None = None
        self._last_activity = 0.0
        self._idle_timer: asyncio.TimerHandle | None = None

    # -- asyncio callbacks ----------------------------------------------- #
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = cast(asyncio.Transport, transport)
        self._server._connections[self] = self._loop.create_future()
        _g_connections.inc()
        self._last_activity = self._loop.time()
        self._idle_timer = self._loop.call_later(
            self._server.read_timeout, self._check_idle
        )

    def data_received(self, data: bytes) -> None:
        self._last_activity = self._loop.time()
        self._cutter.feed(data)
        self._serve()

    def pause_writing(self) -> None:
        self._drained = self._loop.create_future()

    def resume_writing(self) -> None:
        drained, self._drained = self._drained, None
        if drained is not None:
            drained.set_result(None)

    def connection_lost(self, exc: Exception | None) -> None:
        # also reached after a clean EOF: asyncio closes the transport
        _g_connections.dec()
        if self._idle_timer is not None:
            self._idle_timer.cancel()
        for task in self._tasks:
            task.cancel()
        self._transport = None
        self._maybe_closed()

    # -- requests --------------------------------------------------------- #
    def _serve(self) -> None:
        """Start a handler for every complete frame received, as far as
        there are slots; pause reading when there are none left."""
        transport = self._transport
        if transport is None or transport.is_closing():
            return
        server = self._server
        tasks = self._tasks
        try:
            while len(tasks) < server.max_concurrent_requests:
                body = self._cutter.cut()
                if body is None:
                    break
                _c_frames_in.inc()
                _c_bytes_in.inc(frames.LENGTH_PREFIX_BYTES + len(body))
                # Counted before the task first runs so drain() never
                # sees "idle" with an accepted frame still unhandled.
                server._begin_request()
                _g_inflight.inc()
                task = self._loop.create_task(self._handle(body))
                tasks.add(task)
                task.add_done_callback(self._request_done)
        except ProtocolError as exc:
            # A size-limit violation (the body was never waited for) or
            # a frame too short for its header: answer once, on the
            # connection-scoped correlation id 0, then hang up — the
            # stream position can no longer be trusted.
            code = (
                frames.ERR_TOO_LARGE
                if isinstance(exc, FrameTooLargeError)
                else frames.ERR_MALFORMED
            )
            transport.write(frames.pack_error(code, str(exc)))
            transport.close()
            return
        full = len(tasks) >= server.max_concurrent_requests
        if full != self._full:
            self._full = full
            if full:
                transport.pause_reading()
            else:
                transport.resume_reading()

    async def _handle(self, body: bytes) -> None:
        response = await self._server.dispatcher.dispatch(body)
        # Everyone waiting is woken by the same resume; whoever writes
        # first may pause the transport again for the rest, so the write
        # buffer is never more than one response above its high-water mark.
        while self._drained is not None:
            await self._drained
        transport = self._transport
        if transport is None or transport.is_closing():
            return
        transport.write(response)
        _c_frames_out.inc()
        _c_bytes_out.inc(len(response))
        self._last_activity = self._loop.time()

    def _request_done(self, task: "asyncio.Task[None]") -> None:
        """Runs for every handler, one that was cancelled before its
        first step included."""
        self._tasks.discard(task)
        _g_inflight.dec()
        self._server._end_request()
        failure = None if task.cancelled() else task.exception()
        if failure is not None:
            # dispatch answers its own failures; what escapes it (the
            # disk failing under a durable ack) leaves the peer without
            # a response, so it gets a hang-up to retry on
            obs_logs.log_event(
                logger,
                "server_handler_failed",
                level=logging.ERROR,
                error=type(failure).__name__,
            )
            self.hang_up()
        if self._full:
            self._serve()
        self._maybe_closed()

    def _maybe_closed(self) -> None:
        """The peer is gone and the last handler has finished: tell
        whoever waits in :meth:`SSIServer.close`."""
        if self._transport is None and not self._tasks:
            self._server._connections.pop(self).set_result(None)

    # -- hanging up -------------------------------------------------------- #
    def _check_idle(self) -> None:
        """Hang up once ``read_timeout`` passed with no byte either way
        and nothing in flight; a busy connection is not an idle one."""
        timeout = self._server.read_timeout
        quiet = 0.0 if self._tasks else self._loop.time() - self._last_activity
        if quiet >= timeout:
            self.hang_up()
        else:
            self._idle_timer = self._loop.call_later(
                timeout - quiet, self._check_idle
            )

    def hang_up(self) -> None:
        """Drop the connection without waiting for the peer to read what
        is still buffered for it; handlers in flight are cancelled once
        asyncio reports it lost."""
        if self._transport is not None:
            self._transport.abort()


class SSIServer:
    """TCP front end for a dispatcher (``loop.create_server``).

    Requests from one connection are dispatched *concurrently* (v3
    pipelining): up to ``max_concurrent_requests`` handler tasks run per
    connection, and each response is written as soon as its handler
    finishes, in completion order rather than arrival order.  The
    correlation id echoed by the dispatcher is what lets the client
    reassemble the conversation."""

    def __init__(
        self,
        dispatcher: SSIDispatcher | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        read_timeout: float = 30.0,
        max_frame_bytes: int = frames.MAX_FRAME_BYTES,
        max_concurrent_requests: int = 32,
    ) -> None:
        if max_concurrent_requests < 1:
            raise ProtocolError("max_concurrent_requests must be >= 1")
        self.dispatcher = dispatcher if dispatcher is not None else SSIDispatcher()
        self.host = host
        self.port = port
        self.read_timeout = read_timeout
        self.max_frame_bytes = max_frame_bytes
        self.max_concurrent_requests = max_concurrent_requests
        self._server: asyncio.AbstractServer | None = None
        # Graceful-shutdown bookkeeping: requests currently being
        # handled across every connection, and an event that is set
        # exactly while that count is zero (drain() waits on it).
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        #: live connections, each with the future that is done once it
        #: is gone and its handlers have finished (close() waits on these)
        self._connections: dict[_Connection, asyncio.Future[None]] = {}

    def _begin_request(self) -> None:
        self._inflight += 1
        self._idle.clear()

    def _end_request(self) -> None:
        self._inflight -= 1
        if self._inflight == 0:
            self._idle.set()

    async def drain(self, timeout: float = 10.0) -> bool:
        """Stop accepting new connections, answer every parked request
        (and park none from here on) and wait for every in-flight
        request to finish (bounded by *timeout*).  Returns True when the
        server went idle — open connections stay up, so a peer that
        keeps sending can hold drain at the timeout, never beyond it."""
        if self._server is not None:
            self._server.close()
        # parked requests are in flight too: they would sit out the timeout
        self.dispatcher.release_parked()
        try:
            async with asyncio.timeout(timeout):
                await self._idle.wait()
            return True
        except TimeoutError:
            return False

    async def start(self) -> None:
        # asyncio keeps the factory for as long as it listens and a
        # protocol on every transport: held weakly, neither keeps a
        # server nobody closed — and the ciphertexts its dispatcher
        # retains — alive.
        ref = weakref.ref(self)

        def accept() -> asyncio.BaseProtocol:
            server = ref()
            # dropped without close(): whoever still connects talks to nobody
            return _Connection(server) if server is not None else asyncio.Protocol()

        self._server = await asyncio.get_running_loop().create_server(
            accept, self.host, self.port
        )
        sockets = self._server.sockets or ()
        for sock in sockets:
            self.port = sock.getsockname()[1]
            break

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        """Stop listening, answer every parked request (and park none
        from here on), hang up every connection and wait for its
        handlers: when this returns nothing of the server is left on the
        loop.  Requests still in flight are cancelled with their
        connection — call :meth:`drain` first to let them finish."""
        # Swap before awaiting: a second concurrent close() must see None
        # rather than a server object another coroutine is mid-closing.
        server, self._server = self._server, None
        if server is not None:
            server.close()
        self.dispatcher.release_parked()
        for connection in self._connections:
            connection.hang_up()
        if self._connections:
            await asyncio.wait(list(self._connections.values()))
        if server is not None:
            await server.wait_closed()
