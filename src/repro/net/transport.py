"""Transports.

A :class:`Transport` moves one request frame to the SSI and returns one
response frame.  Two implementations:

* :class:`LoopbackTransport` — calls an :class:`SSIDispatcher` coroutine
  directly.  Deterministic, no sockets; the default for tests.
* :class:`TCPTransport` — a real ``asyncio`` stream connection with
  reconnect-on-drop; every failure surfaces as
  :class:`~repro.exceptions.TransportError` so the client layer can
  retry.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable

from repro.exceptions import ProtocolError, TransportError
from repro.net import frames
from repro.obs import metrics as obs_metrics

_CONNECTS = obs_metrics.REGISTRY.counter(
    "repro_transport_connects_total",
    "TCP connections established by client transports (first connect "
    "plus every reconnect-on-drop).",
)
_STREAM_FAILURES = obs_metrics.REGISTRY.counter(
    "repro_transport_stream_failures_total",
    "Client streams torn down (drop, EOF, framing violation, close).",
)
_LATE_RESPONSES = obs_metrics.REGISTRY.counter(
    "repro_transport_late_responses_total",
    "Responses dropped because their correlation id was already "
    "abandoned by a timed-out request.",
)
_WINDOW_INUSE = obs_metrics.REGISTRY.gauge(
    "repro_transport_window_inuse",
    "Requests currently occupying client send-window slots.",
)

_c_connects = _CONNECTS.labels()
_c_stream_failures = _STREAM_FAILURES.labels()
_c_late_responses = _LATE_RESPONSES.labels()
_g_window = _WINDOW_INUSE.labels()

DispatchFn = Callable[[bytes], Awaitable[bytes]]


class Transport:
    """One request frame out, one response frame body back."""

    async def request(self, message: bytes) -> bytes:
        raise NotImplementedError

    async def reset(self) -> None:
        """Discard any connection state so the next request starts on a
        clean stream.  Called by the client after a request is abandoned
        mid-flight (timeout); stateless transports need do nothing."""
        return None

    async def close(self) -> None:  # pragma: no cover - trivial default
        return None


class LoopbackTransport(Transport):
    """In-memory transport: full encode/decode round trip, no sockets.

    The request frame is split exactly as the TCP server would split it
    (length header off, body through the dispatcher), so a protocol bug
    cannot hide in the loopback path."""

    def __init__(self, dispatch: DispatchFn) -> None:
        self._dispatch = dispatch

    async def request(self, message: bytes) -> bytes:
        if len(message) < frames.MIN_FRAME_BYTES:
            raise TransportError("runt frame")
        body = message[frames.LENGTH_PREFIX_BYTES:]
        response = await self._dispatch(body)
        # Responses come back framed; strip the length header like a
        # stream reader would.
        return response[frames.LENGTH_PREFIX_BYTES:]


class TCPTransport(Transport):
    """A persistent, *pipelined* TCP connection, re-established on demand.

    Up to ``window`` requests share the connection concurrently: each
    request is stamped with a fresh correlation id, registered in a
    futures-by-correlation-id map and written to the stream; one
    background reader task routes every response frame to its waiter by
    the echoed id, so responses may complete in any order.

    A *timed-out* request simply abandons its correlation id — the id is
    dropped from the map and its late response (if it ever arrives) is
    discarded by the reader task.  The stream itself stays healthy; only
    a genuine stream failure (drop, EOF, framing violation) tears the
    connection down, fails every pending request with
    :class:`TransportError` and lets the next request reconnect from
    scratch (reconnect-on-drop)."""

    def __init__(
        self,
        host: str,
        port: int,
        connect_timeout: float = 5.0,
        max_frame_bytes: int = frames.MAX_FRAME_BYTES,
        window: int = 32,
    ) -> None:
        if window < 1:
            raise ProtocolError("pipeline window must be >= 1")
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.max_frame_bytes = max_frame_bytes
        self.window = window
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task[None] | None = None
        self._pending: dict[int, asyncio.Future[bytes]] = {}
        self._next_corr = 0
        self._window_sem = asyncio.Semaphore(window)
        self._write_lock = asyncio.Lock()
        self._connect_lock = asyncio.Lock()

    # -- connection lifecycle -------------------------------------------- #
    async def _ensure_connected(self) -> None:
        if self._writer is not None:
            return
        async with self._connect_lock:
            if self._writer is not None:
                return
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(self.host, self.port),
                    timeout=self.connect_timeout,
                )
            except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
                raise TransportError(
                    f"cannot connect to {self.host}:{self.port}: {exc}"
                ) from None
            self._reader, self._writer = reader, writer
            self._reader_task = asyncio.create_task(
                self._read_loop(reader, writer)
            )
            _c_connects.inc()

    async def _read_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Route response frames to their waiters by correlation id.

        An id with no waiter is the late response of a timed-out request:
        dropped on the floor, and the stream carries on undisturbed."""
        try:
            while True:
                body = await frames.read_frame(reader, self.max_frame_bytes)
                future = self._pending.pop(
                    frames.peek_correlation_id(body), None
                )
                if future is not None and not future.done():
                    future.set_result(body)
                else:
                    _c_late_responses.inc()
        except asyncio.CancelledError:
            raise
        except (ConnectionError, OSError, asyncio.IncompleteReadError) as exc:
            self._stream_failed(f"connection to SSI dropped: {exc}", writer)
        except ProtocolError as exc:
            # A framing violation in a response: the stream position can
            # no longer be trusted, so treat it like a drop.
            self._stream_failed(f"unreadable frame from SSI: {exc}", writer)

    def _stream_failed(
        self, reason: str, owner: asyncio.StreamWriter | None = None
    ) -> None:
        """The stream is broken: fail every in-flight request and abandon
        the connection so the next request reconnects.  *owner* guards
        against a stale reader task (of an already-replaced connection)
        tearing down its successor."""
        if owner is not None and owner is not self._writer:
            return
        if self._writer is not None:
            _c_stream_failures.inc()
        self._abort()
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(TransportError(reason))

    def _next_correlation_id(self) -> int:
        self._next_corr = (self._next_corr % frames.MAX_CORRELATION_ID) + 1
        return self._next_corr

    # -- the request path ------------------------------------------------ #
    async def request(self, message: bytes) -> bytes:
        if len(message) < frames.MIN_FRAME_BYTES:
            raise TransportError("runt frame")
        async with self._window_sem:  # bounded send window (backpressure)
            _g_window.inc()
            try:
                await self._ensure_connected()
                writer = self._writer
                assert writer is not None
                corr = self._next_correlation_id()
                future: asyncio.Future[bytes] = (
                    asyncio.get_running_loop().create_future()
                )
                self._pending[corr] = future
                framed = bytearray(message)
                framed[
                    frames.LENGTH_PREFIX_BYTES + 2 : frames.MIN_FRAME_BYTES
                ] = corr.to_bytes(4, "big")
                try:
                    async with self._write_lock:
                        writer.write(bytes(framed))
                        await writer.drain()
                    return await future
                except (ConnectionError, OSError) as exc:
                    self._stream_failed(f"connection to SSI dropped: {exc}")
                    raise TransportError(
                        f"connection to SSI dropped: {exc}"
                    ) from None
                finally:
                    # Covers success, stream failure *and* cancellation
                    # (a request timeout): the correlation id is
                    # forgotten, so a late response is dropped — the
                    # stream is NOT reset.
                    self._pending.pop(corr, None)
            finally:
                _g_window.dec()

    async def drop(self) -> None:
        """Abruptly abandon the current connection (failure injection:
        'the TDS went offline mid-request')."""
        self._stream_failed("connection dropped")
        await self._reap_reader_task()

    async def reset(self) -> None:
        """After a request timeout the pipelined stream is still healthy —
        the timed-out correlation id was already dropped — so a reset is
        deliberately a no-op.  Stream-level failures tear the connection
        down from the reader task instead."""
        return None

    async def close(self) -> None:
        self._stream_failed("transport closed")
        await self._reap_reader_task()

    def _abort(self) -> None:
        """Synchronously abandon the connection (no graceful close)."""
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()

    async def _reap_reader_task(self) -> None:
        task, self._reader_task = self._reader_task, None
        if task is not None and task is not asyncio.current_task():
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
