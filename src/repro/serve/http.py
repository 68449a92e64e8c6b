"""Asyncio HTTP observability endpoint for the serving layer.

A deliberately minimal HTTP/1.0-style server (stdlib asyncio only, and
all of it inside ``repro.serve``) exposing the operational
surface a scraper or orchestrator needs:

========== =============================================================
path        body
========== =============================================================
/metrics    Prometheus text exposition of the merged registry summary
/healthz    liveness — 200 ``ok`` while the process can answer at all
/readyz     readiness — 200 while serving, **503 during drain** so load
            balancers stop routing before in-flight work finishes
/slo        JSON snapshot of the SLO engine (worst state + per rule)
/timeline.json  JSON dump of the metrics timeline ring
/trace      Perfetto / Chrome trace-event download of buffered spans
========== =============================================================

Every provider is an injected zero-argument callable, so the endpoint
is equally servable from :class:`~repro.serve.server.ReproServer`
(merged cross-worker summaries) and from tests (canned dicts).  The
endpoint never touches the monitor itself — it only reads snapshots —
so it can never block or interleave with the single-writer command
path.

Responses always carry ``Content-Length`` and ``Connection: close``:
one request per connection keeps the parser honest and the sockets
bounded (observability scrapes are low-rate by construction).
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Callable

from .. import obs
from ..obs.exposition import render_prometheus
from ..obs.timeline import Timeline
from ..obs.trace import to_chrome

__all__ = ["ObservabilityEndpoint"]

_MAX_REQUEST_BYTES = 8192


class ObservabilityEndpoint:
    """HTTP scrape/health server over injected snapshot providers."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        summary: Callable[[], dict[str, Any]],
        ready: Callable[[], bool],
        slo: Callable[[], dict[str, Any]] | None = None,
        timeline: Timeline | None = None,
        spans: Callable[[], list[Any]] | None = None,
        prefix: str = "repro",
    ) -> None:
        self._host = host
        self._port = port
        self._summary = summary
        self._ready = ready
        self._slo = slo
        self._timeline = timeline
        self._spans = spans if spans is not None else obs.spans
        self._prefix = prefix
        self._server: asyncio.AbstractServer | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — resolves port 0 after start()."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("observability endpoint is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> None:
        """Bind and start serving scrapes on the configured address."""
        self._server = await asyncio.start_server(
            self._handle, self._host, self._port
        )

    async def stop(self) -> None:
        """Close the listening socket and wait for it to release."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- request handling --------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await reader.readline()
            if not request or len(request) > _MAX_REQUEST_BYTES:
                return
            # Drain headers until the blank line; their content is unused.
            consumed = len(request)
            while True:
                line = await reader.readline()
                consumed += len(line)
                if line in (b"\r\n", b"\n", b"") or consumed > _MAX_REQUEST_BYTES:
                    break
            parts = request.decode("latin-1").split()
            if len(parts) < 2:
                status, headers, body = self._error(400, "bad request")
            elif parts[0] != "GET":
                status, headers, body = self._error(405, "method not allowed")
            else:
                status, headers, body = self._route(parts[1])
            await self._respond(writer, status, headers, body)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # scraper went away mid-exchange; nothing to clean up
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass  # peer reset during close; the socket is gone either way

    def _route(self, path: str) -> tuple[int, dict[str, str], bytes]:
        path = path.split("?", 1)[0]
        if path == "/metrics":
            text = render_prometheus(self._summary(), prefix=self._prefix)
            return (
                200,
                {"Content-Type": "text/plain; version=0.0.4; charset=utf-8"},
                text.encode("utf-8"),
            )
        if path == "/healthz":
            return 200, {"Content-Type": "text/plain; charset=utf-8"}, b"ok\n"
        if path == "/readyz":
            if self._ready():
                return 200, {"Content-Type": "text/plain; charset=utf-8"}, b"ready\n"
            return 503, {"Content-Type": "text/plain; charset=utf-8"}, b"draining\n"
        if path == "/slo":
            if self._slo is None:
                return self._error(404, "slo engine not configured")
            return self._json(self._slo())
        if path == "/timeline.json":
            if self._timeline is None:
                return self._error(404, "timeline not configured")
            return self._json(self._timeline.to_json())
        if path == "/trace":
            doc = to_chrome(self._spans())
            body = json.dumps(doc).encode("utf-8")
            return (
                200,
                {
                    "Content-Type": "application/json; charset=utf-8",
                    "Content-Disposition": 'attachment; filename="repro-trace.json"',
                },
                body,
            )
        return self._error(404, "not found")

    @staticmethod
    def _json(payload: Any) -> tuple[int, dict[str, str], bytes]:
        body = json.dumps(payload).encode("utf-8")
        return 200, {"Content-Type": "application/json; charset=utf-8"}, body

    @staticmethod
    def _error(code: int, message: str) -> tuple[int, dict[str, str], bytes]:
        return (
            code,
            {"Content-Type": "text/plain; charset=utf-8"},
            (message + "\n").encode("utf-8"),
        )

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        headers: dict[str, str],
        body: bytes,
    ) -> None:
        reasons = {
            200: "OK",
            400: "Bad Request",
            404: "Not Found",
            405: "Method Not Allowed",
            503: "Service Unavailable",
        }
        lines = [f"HTTP/1.0 {status} {reasons.get(status, 'Unknown')}"]
        headers = {
            "Server": "repro-serve",
            "Connection": "close",
            "Content-Length": str(len(body)),
            **headers,
        }
        lines.extend(f"{key}: {value}" for key, value in headers.items())
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()
