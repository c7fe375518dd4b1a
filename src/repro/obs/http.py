"""A tiny asyncio HTTP endpoint exposing the metrics registry.

Serves exactly three paths:

* ``GET /metrics`` — exposition of :data:`repro.obs.metrics.REGISTRY`
  (Prometheus text content type)
* ``GET /spans`` — the process's span recorder as JSONL
  (``repro.obs.spans.load_jsonl`` parses it), **streamed** in bounded
  chunks so a full 50k-span ring never materializes as one string;
  lets an operator pull the SSI's query-lifecycle spans without
  stopping the server
* ``GET /healthz`` — liveness probe.  With a
  :class:`repro.obs.health.HealthMonitor` attached it returns the full
  JSON verdict (status / reasons / loop lag / window) and switches to
  ``503`` when the verdict is not ``ok``, so orchestrators can act on
  the status code alone; without one it stays the bare ``ok`` probe.

Deliberately minimal: no keep-alive, no TLS, request line + headers
only, 8 KiB cap.  It shares the event loop with ``repro serve`` via
``start_metrics_server`` so there is no extra thread to manage.
"""

from __future__ import annotations

import asyncio
import json
from typing import TYPE_CHECKING, Optional

from repro.obs import metrics, spans

if TYPE_CHECKING:
    from repro.obs.health import HealthMonitor

__all__ = ["start_metrics_server"]

_MAX_REQUEST_BYTES = 8192
_TEXT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _response(status: str, body: bytes, content_type: str = _TEXT_TYPE) -> bytes:
    head = (
        f"HTTP/1.1 {status}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("ascii") + body


def _stream_head(status: str, content_type: str) -> bytes:
    # No Content-Length: "Connection: close" delimits the body, which is
    # what lets /spans stream chunk by chunk.
    head = (
        f"HTTP/1.1 {status}\r\n"
        f"Content-Type: {content_type}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("ascii")


async def _handle(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    registry: metrics.MetricsRegistry,
    health: "Optional[HealthMonitor]" = None,
) -> None:
    try:
        try:
            async with asyncio.timeout(5.0):
                raw = await reader.readuntil(b"\r\n\r\n")
        except (
            TimeoutError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            return
        if len(raw) > _MAX_REQUEST_BYTES:
            writer.write(_response("431 Request Header Fields Too Large", b""))
            return
        request_line = raw.split(b"\r\n", 1)[0].decode("latin-1", "replace")
        parts = request_line.split(" ")
        if len(parts) < 2 or parts[0] != "GET":
            writer.write(_response("405 Method Not Allowed", b"method not allowed\n"))
            return
        path = parts[1].split("?", 1)[0]
        if path == "/metrics":
            body = registry.render_prometheus().encode("utf-8")
            writer.write(_response("200 OK", body))
        elif path == "/spans":
            writer.write(
                _stream_head("200 OK", "application/jsonl; charset=utf-8")
            )
            for chunk in spans.RECORDER.export_jsonl_chunks():
                writer.write(chunk.encode("utf-8"))
                await writer.drain()
        elif path == "/healthz":
            if health is None:
                writer.write(_response("200 OK", b"ok\n"))
            else:
                verdict = health.verdict()
                status = (
                    "200 OK" if verdict.status == 0 else "503 Service Unavailable"
                )
                body = (json.dumps(verdict.to_dict()) + "\n").encode("utf-8")
                writer.write(
                    _response(
                        status, body, content_type="application/json; charset=utf-8"
                    )
                )
        else:
            writer.write(_response("404 Not Found", b"not found\n"))
    finally:
        try:
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def start_metrics_server(
    host: str = "127.0.0.1",
    port: int = 0,
    registry: Optional[metrics.MetricsRegistry] = None,
    health: "Optional[HealthMonitor]" = None,
) -> asyncio.AbstractServer:
    """Start the endpoint on the running loop; returns the server.

    ``port=0`` binds an ephemeral port (see
    ``server.sockets[0].getsockname()``).
    """
    reg = registry if registry is not None else metrics.REGISTRY

    async def handler(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await _handle(reader, writer, reg, health)

    return await asyncio.start_server(
        handler, host=host, port=port, limit=_MAX_REQUEST_BYTES
    )
