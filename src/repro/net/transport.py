"""Transports.

A :class:`Transport` moves one request frame to the SSI and returns one
response frame.  Two implementations:

* :class:`LoopbackTransport` — calls an :class:`SSIDispatcher` coroutine
  directly.  Deterministic, no sockets; the default for tests.
* :class:`TCPTransport` — a real TCP connection (an ``asyncio``
  protocol) with reconnect-on-drop; every failure surfaces as
  :class:`~repro.exceptions.TransportError` so the client layer can
  retry.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, cast

from repro.exceptions import ProtocolError, TransportError
from repro.net import frames
from repro.obs import metrics as obs_metrics

_CONNECTS = obs_metrics.REGISTRY.counter(
    "repro_transport_connects_total",
    "TCP connections established by client transports (first connect "
    "plus every reconnect-on-drop).",
)
_c_connects = _CONNECTS.labels()

DispatchFn = Callable[[bytes], Awaitable[bytes]]


class Transport:
    """One request frame out, one response frame body back."""

    async def request(self, message: bytes) -> bytes:
        raise NotImplementedError

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
        # Responses come back framed; strip the length header like the
        # frame cutter would.
        return response[frames.LENGTH_PREFIX_BYTES:]


class _Connection(asyncio.Protocol):
    """One TCP connection of a :class:`TCPTransport`: cuts response
    frames out of what arrives and hands each to the request waiting on
    its correlation id.  A transport outlives its connections, so each
    reports its own end and the transport ignores any but the current
    one's."""

    #: set by ``connection_made``, before ``create_connection`` returns
    transport: asyncio.Transport

    def __init__(self, owner: "TCPTransport") -> None:
        self._owner = owner
        self._cutter = frames.FrameCutter(owner.max_frame_bytes)

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = cast(asyncio.Transport, transport)

    def data_received(self, data: bytes) -> None:
        cutter, pending = self._cutter, self._owner._pending
        cutter.feed(data)
        try:
            while (body := cutter.cut()) is not None:
                future = pending.pop(frames.peek_correlation_id(body), None)
                # no live waiter: the late response of a timed-out
                # request, dropped, and the stream carries on undisturbed
                if future is not None and not future.done():
                    future.set_result(body)
        except ProtocolError as exc:
            # A framing violation in a response: the stream position can
            # no longer be trusted, so treat it like a drop.
            self._owner._stream_failed(f"unreadable frame from SSI: {exc}", self)

    def connection_lost(self, exc: Exception | None) -> None:
        self._owner._stream_failed(
            f"connection to SSI dropped: {exc or 'closed by the SSI'}", self
        )


class TCPTransport(Transport):
    """A persistent, *pipelined* TCP connection, re-established on demand.

    Up to ``window`` requests share the connection concurrently: each
    request is stamped with a fresh correlation id, registered in a
    futures-by-correlation-id map and written to the socket; the
    connection's ``data_received`` routes every response frame to its
    waiter by the echoed id, so responses may complete in any order.

    A *timed-out* request simply abandons its correlation id — the id is
    dropped from the map and its late response (if it ever arrives) is
    discarded on arrival.  The stream itself stays healthy; only a
    genuine stream failure (drop, EOF, framing violation) tears the
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
        self._connection: _Connection | None = None
        self._pending: dict[int, asyncio.Future[bytes]] = {}
        self._next_corr = 0
        self._window_sem = asyncio.Semaphore(window)
        self._connect_lock = asyncio.Lock()

    # -- connection lifecycle -------------------------------------------- #
    async def _connect(self) -> _Connection:
        async with self._connect_lock:
            if self._connection is not None:
                return self._connection
            try:
                async with asyncio.timeout(self.connect_timeout):
                    _, connection = await asyncio.get_running_loop().create_connection(
                        lambda: _Connection(self), self.host, self.port
                    )
            except OSError as exc:  # refused, unreachable or timed out
                raise TransportError(
                    f"cannot connect to {self.host}:{self.port}: {exc}"
                ) from None
            self._connection = connection
            _c_connects.inc()
            return connection

    def _stream_failed(self, reason: str, owner: _Connection | None = None) -> None:
        """The stream is broken: fail every in-flight request and abandon
        the connection so the next request reconnects.  *owner* guards
        against a connection already replaced tearing down its
        successor."""
        connection = self._connection
        if connection is None or (owner is not None and owner is not connection):
            return
        self._connection = None
        connection.transport.abort()
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
            connection = self._connection
            if connection is None:
                connection = await self._connect()
            corr = self._next_correlation_id()
            future: asyncio.Future[bytes] = asyncio.get_running_loop().create_future()
            self._pending[corr] = future
            framed = bytearray(message)
            framed[
                frames.LENGTH_PREFIX_BYTES + 2 : frames.MIN_FRAME_BYTES
            ] = corr.to_bytes(4, "big")
            try:
                # Never waits for the socket: every frame written is
                # one whose caller waits below, so the window bounds
                # what is buffered.  A failed write arrives as
                # connection_lost, which fails the future.
                connection.transport.write(framed)
                return await future
            finally:
                # Covers success, stream failure *and* cancellation
                # (a request timeout): the correlation id is
                # forgotten, so a late response is dropped — the
                # stream is NOT reset.
                self._pending.pop(corr, None)

    async def drop(self) -> None:
        """Abruptly abandon the current connection (failure injection:
        'the TDS went offline mid-request')."""
        self._stream_failed("connection dropped")

    async def close(self) -> None:
        self._stream_failed("transport closed")
