"""HTTP observability routes of the serving layer.

A deliberately minimal HTTP/1.0 responder exposing the operational
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

The server's loop (:mod:`repro.serve.server`) owns the listening socket
and the connections; :meth:`ObservabilityEndpoint.respond` turns one
request head into one response.  Every provider is an injected
zero-argument callable, so the endpoint is equally servable from
:class:`~repro.serve.server.ReproServer` (merged cross-worker summaries)
and from tests (canned dicts).  The endpoint never touches the monitor
itself — it only reads snapshots — so it can never interleave with a
half-executed command.

Responses always carry ``Content-Length`` and ``Connection: close``:
one request per connection keeps the parser honest and the sockets
bounded (observability scrapes are low-rate by construction).
"""

from __future__ import annotations

import json
from typing import Any, Callable

from .. import obs
from ..obs.exposition import render_prometheus
from ..obs.timeline import Timeline
from ..obs.trace import to_chrome

__all__ = ["MAX_REQUEST_BYTES", "ObservabilityEndpoint"]

#: A request head is answered once it is this long, blank line or not;
#: a request line alone this long is dropped unanswered.
MAX_REQUEST_BYTES = 8192
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    503: "Service Unavailable",
}


class ObservabilityEndpoint:
    """HTTP scrape/health responses over injected snapshot providers."""

    def __init__(
        self,
        *,
        summary: Callable[[], dict[str, Any]],
        ready: Callable[[], bool],
        slo: Callable[[], dict[str, Any]] | None = None,
        timeline: Timeline | None = None,
        spans: Callable[[], list[Any]] | None = None,
        prefix: str = "repro",
    ) -> None:
        self._summary = summary
        self._ready = ready
        self._slo = slo
        self._timeline = timeline
        self._spans = spans if spans is not None else obs.spans
        self._prefix = prefix

    def respond(self, head: bytes) -> bytes:
        """The response to one request head (request line, headers),
        or ``b""`` for a request line too empty or too long to answer."""
        request = head.split(b"\n", 1)[0]
        if not request or len(request) >= MAX_REQUEST_BYTES:
            return b""
        parts = request.decode("latin-1").split()
        if len(parts) < 2:
            status, headers, body = self._error(400, "bad request")
        elif parts[0] != "GET":
            status, headers, body = self._error(405, "method not allowed")
        else:
            status, headers, body = self._route(parts[1])
        lines = [f"HTTP/1.0 {status} {_REASONS.get(status, 'Unknown')}"]
        headers = {
            "Server": "repro-serve",
            "Connection": "close",
            "Content-Length": str(len(body)),
            **headers,
        }
        lines.extend(f"{key}: {value}" for key, value in headers.items())
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body

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
