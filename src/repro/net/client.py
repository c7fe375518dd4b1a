"""Async clients for the SSI wire protocol.

:class:`AsyncSSIClient` is the low-level RPC surface: one proxy per wire
row of the operation table (:mod:`repro.net.ops`), with a configurable
request timeout and bounded retries under jittered exponential backoff
(:class:`RetryPolicy`).
Transport failures (drops, timeouts) and ``ERR_ADMISSION`` responses
are retried; *typed* application errors (duplicate/unknown query ids)
are raised immediately as the matching exception from
:mod:`repro.exceptions` — the same types the in-process SSI raises, so
callers cannot tell a remote SSI from a local one by its failures.

Mutating requests (post_query, tuple submissions) carry an idempotency
key — a per-client id plus a sequence number baked into the request
bytes once per *logical* call — so a retry after a lost response
replays the identical request and the dispatcher drops the duplicate
instead of applying it twice.  Semantics are therefore
exactly-once per logical client call while the client keeps retrying;
only a caller that gives up and later re-issues the operation as a *new*
call reintroduces at-least-once behaviour.

:class:`TDSClient` and :class:`QuerierClient` are role-named views of the
same surface (a TDS waits for queries/partitions and submits ciphertext;
a querier posts queries and waits for results).
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Coroutine, TypeVar

from repro.core.messages import QueryResult
from repro.exceptions import (
    AdmissionError,
    ProtocolError,
    RollbackDetectedError,
    TransportError,
)
from repro.net import frames, ops
from repro.net.frames import Reader, Writer
from repro.net.transport import Transport
from repro.obs import metrics as obs_metrics
from repro.obs.health import HealthVerdict
from repro.obs.spans import TraceContext
from repro.store.commitment import Commitment

R = TypeVar("R")

_RETRIES = obs_metrics.REGISTRY.counter(
    "repro_client_retries_total",
    "Client-side request retries, by what triggered them.",
    ("reason",),
)
_TIMEOUTS = obs_metrics.REGISTRY.counter(
    "repro_client_request_timeouts_total",
    "Requests abandoned mid-flight on timeout (each abandons its "
    "correlation id on a pipelined transport).",
)
_c_retry_timeout = _RETRIES.labels(reason="timeout")
_c_retry_transport = _RETRIES.labels(reason="transport")
_c_retry_admission = _RETRIES.labels(reason="admission")
_c_timeouts = _TIMEOUTS.labels()


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with jittered exponential backoff.

    ``attempt`` 0 is the first *retry*; its delay is ``backoff_base``,
    doubling (``backoff_factor``) up to ``backoff_max``, plus a jitter
    fraction drawn from the caller's seeded RNG — deterministic under a
    fixed seed, decorrelated across a fleet."""

    request_timeout: float = 5.0
    max_retries: int = 4
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.1

    def delay(self, attempt: int, rng: random.Random) -> float:
        base = min(
            self.backoff_max, self.backoff_base * self.backoff_factor**attempt
        )
        return base * (1.0 + self.jitter * rng.random())


def _proxy(op: ops.Op[R]) -> Callable[..., Coroutine[Any, Any, R]]:
    """The client method of one table row: arguments are the row's
    request fields (positional or by field name), the result is its
    response field."""

    async def proxy(self: "AsyncSSIClient", *args: Any, **kwargs: Any) -> R:
        return await self.call(op, *args, **kwargs)

    proxy.__name__ = proxy.__qualname__ = op.name
    return proxy


class AsyncSSIClient:
    """One logical client connection to a (possibly remote) SSI."""

    def __init__(
        self,
        transport: Transport,
        policy: RetryPolicy | None = None,
        rng: random.Random | None = None,
        sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
    ) -> None:
        self.transport = transport
        self.policy = policy if policy is not None else RetryPolicy()
        self._rng = rng if rng is not None else random.Random()
        self._sleep = sleep
        #: transport-level retries performed so far (observability/tests)
        self.retries = 0
        # Idempotency identity: a connection-layer pseudonym (not a TDS
        # id) plus a per-call sequence number; retried requests reuse the
        # bytes of the original, so the server can drop replays.
        self._client_id = f"{self._rng.getrandbits(64):016x}"
        self._seq = 0
        #: trace context attached (as the EXT_TRACE extension) to every
        #: request; None = no propagation.
        self.trace_context: TraceContext | None = None
        #: highest durable commitment observed on this connection, from
        #: EXT_COMMITMENT ack extensions or get_commitment() — the
        #: client-side anchor for rollback detection.
        self.last_commitment: Commitment | None = None

    async def close(self) -> None:
        await self.transport.close()

    def set_trace_context(self, context: TraceContext | None) -> None:
        """Propagate *context* with every subsequent request."""
        self.trace_context = context

    # ------------------------------------------------------------------ #
    # core call loop: encode -> timeout -> typed error mapping -> bounded
    # retry -> decode
    # ------------------------------------------------------------------ #
    async def call(self, op: ops.Op[R], *args: Any, **kwargs: Any) -> R:
        """Run one operation of the table.

        An idempotent operation is stamped with this client's key once
        per logical call (not per attempt): retries resend the identical
        bytes, so the dispatcher can recognise and drop a replay whose
        first application succeeded but whose response was lost."""
        if op.opcode is None:
            raise ProtocolError(f"{op.name} is not a wire operation")
        w = Writer()
        if op.idem:
            self._seq += 1
            ops.IDEM.write(w, (self._client_id, self._seq))
        op.write_request(w, op.bind(args, kwargs))
        extensions: tuple[tuple[int, bytes], ...] = ()
        if self.trace_context is not None:
            extensions = ((frames.EXT_TRACE, self.trace_context.to_wire()),)
        r = await self._send(
            frames.pack_frame(op.opcode, w.getvalue(), extensions=extensions)
        )
        result = op.response.read(r)
        r.expect_end()
        return result

    async def _send(self, request: bytes) -> Reader:
        attempt = 0
        while True:
            try:
                async with asyncio.timeout(self.policy.request_timeout):
                    body = await self.transport.request(request)
                return self._unwrap(body)
            except (TransportError, TimeoutError, AdmissionError) as exc:
                if isinstance(exc, TimeoutError):
                    # The request was abandoned mid-flight.  On the
                    # pipelined TCP transport the timed-out correlation
                    # id is already dropped and the stream stays up, so
                    # reset() is a no-op; transports without response
                    # routing use it to discard connection state so the
                    # retry starts on a clean stream.
                    _c_timeouts.inc()
                    await self.transport.reset()
                if attempt >= self.policy.max_retries:
                    raise
                delay = self.policy.delay(attempt, self._rng)
                if isinstance(exc, TimeoutError):
                    _c_retry_timeout.inc()
                elif isinstance(exc, AdmissionError):
                    # Honour the server's backoff hint: an admission
                    # quota frees when a result publishes, which our own
                    # exponential schedule knows nothing about.
                    _c_retry_admission.inc()
                    delay = max(delay, exc.retry_after)
                else:
                    _c_retry_transport.inc()
                await self._sleep(delay)
                attempt += 1
                self.retries += 1

    def _unwrap(self, body: bytes) -> Reader:
        msg_type, _corr, exts, reader = frames.unpack_frame_ext(body)
        if msg_type == frames.MSG_OK:
            raw = exts.get(frames.EXT_COMMITMENT)
            if raw is not None:
                self._observe_commitment(Commitment.from_wire(raw))
            return reader
        if msg_type == frames.MSG_ERROR:
            code = reader.u8()
            message = reader.text()
            if code == frames.ERR_ADMISSION:
                # Optional trailing backoff hint (older servers omit it;
                # error payloads are the one shape never expect_end()ed,
                # so the extension is compatible both ways).
                retry_after = reader.f64() if reader.remaining() >= 8 else 0.0
                raise AdmissionError(message, retry_after=retry_after)
            raise frames.ERROR_TYPES.get(code, ProtocolError)(message)
        raise ProtocolError(f"unexpected response type 0x{msg_type:02x}")

    def _observe_commitment(self, commitment: Commitment) -> None:
        """Track the highest durable commitment seen on this connection.

        Passive check only: two acks pipelined on one connection can be
        *observed* out of order, so a lower count here is a stale ack,
        not evidence of rollback — it is ignored.  An unchanged count
        with a different head, however, means two distinct logs of the
        same length: a definite rewrite.  The strong rollback check is
        :meth:`verify_freshness`, which demands an inclusion proof for
        exactly the commitment this method recorded."""
        seen = self.last_commitment
        if seen is not None:
            if commitment.count == seen.count and commitment.head != seen.head:
                raise RollbackDetectedError(
                    f"SSI commitment head changed at count {seen.count}: "
                    "the log was rewritten"
                )
            if commitment.count < seen.count:
                return
        self.last_commitment = commitment

    # ------------------------------------------------------------------ #
    # wire operations: one proxy per table row with an opcode
    # ------------------------------------------------------------------ #
    #: the connect: a round trip that proves the peer speaks this version
    ping = _proxy(ops.PING)
    #: the SSI's metrics in Prometheus text form
    get_stats = _proxy(ops.GET_STATS)
    post_query = _proxy(ops.POST_QUERY)
    fetch_query = _proxy(ops.FETCH_QUERY)
    #: one contribution (an EncryptedTupleBlock, or a sequence of tuples
    #: made into one) as one columnar frame
    submit_tuples_batch = _proxy(ops.SUBMIT_TUPLES_BATCH)
    collected_count = _proxy(ops.COLLECTED_COUNT)
    close_collection = _proxy(ops.CLOSE_COLLECTION)
    #: (new queries, a work unit or None, finished ids): the SSI parks
    #: the request up to ``hold`` seconds while it has nothing to say
    await_work = _proxy(ops.AWAIT_WORK)
    #: what a TDS hands back for a partition: (RESULT_PARTIALS or
    #: RESULT_ROWS, one block)
    submit_partition_result = _proxy(ops.SUBMIT_PARTITION_RESULT)
    #: the published result, or None when ``hold`` seconds passed first
    #: (a zero hold is the one-shot read)
    await_result = _proxy(ops.AWAIT_RESULT)

    @property
    def hold(self) -> float:
        """How long this client lets the SSI park one request: half its
        own request timeout, so a parked request never trips it."""
        return self.policy.request_timeout / 2

    async def get_health(self) -> dict:
        """Fetch the SSI's rolling-window health verdict.

        A server running without a monitor answers ``monitored=False``
        with an ``ok`` verdict, so callers can poll unconditionally.
        """
        verdict = await self.call(ops.GET_HEALTH)
        status, lag, window, reasons = verdict or (0, 0.0, 0.0, [])
        return {
            "monitored": verdict is not None,
            **HealthVerdict(status, reasons, lag, window).to_dict(),
        }

    async def get_commitment(
        self, check: Commitment | None = None
    ) -> Commitment | None:
        """Fetch the SSI's current durable commitment (None when the
        server runs without a store).

        With *check*, also demand an inclusion proof: the head the
        server's chain had when it was ``check.count`` records long.  A
        missing or mismatching proof means the chain the server now
        serves does not extend the one *check* was cut from — a rollback
        or selective drop of acknowledged state — and raises
        :class:`RollbackDetectedError`."""
        attested = await self.call(
            ops.GET_COMMITMENT,
            None if check is None else (check.count, check.head),
        )
        if attested is None:
            return None
        count, head, proof = attested
        current = Commitment(count=count, head=head)
        if check is not None:
            if current.count < check.count or proof != check.head:
                raise RollbackDetectedError(
                    f"SSI cannot prove its {current.count}-record chain "
                    f"extends the {check.count}-record commitment this "
                    "client observed: state was rolled back"
                )
        self._observe_commitment(current)
        return current

    async def verify_freshness(self) -> Commitment | None:
        """Check that the server's chain still extends the last
        commitment this client observed (no-op anchor when none was).
        Returns the server's current commitment, or None without a
        store; raises :class:`RollbackDetectedError` on rollback."""
        return await self.get_commitment(self.last_commitment)


class TDSClient(AsyncSSIClient):
    """A TDS-side connection: wait for queries and partitions, push
    ciphertext."""


class QuerierClient(AsyncSSIClient):
    """A querier-side connection: post queries, await published results."""

    async def wait_result(
        self, query_id: str, poll_interval: float = 0.05, timeout: float = 60.0
    ) -> QueryResult:
        """Wait for the published result on parked ``await_result``
        requests, re-armed when a hold expires.  *poll_interval* paces
        nothing while exchanges succeed: it is the pause before
        re-arming after one failed (transport error or timeout, retries
        included).  Raises :class:`TransportError` on overall timeout."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while True:
            hold = min(self.hold, max(0.0, deadline - loop.time()))
            try:
                result = await self.await_result(query_id, hold)
            except (TransportError, TimeoutError):
                if loop.time() >= deadline:
                    raise
                await self._sleep(poll_interval)
                continue
            if result is not None:
                return result
            if loop.time() >= deadline:
                raise TransportError(
                    f"result of {query_id!r} not published within {timeout}s"
                )
