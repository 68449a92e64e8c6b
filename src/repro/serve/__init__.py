"""``repro.serve`` — the network serving layer.

Fronts a monitor (library :class:`~repro.core.monitor.StreamMonitor` or
sharded :class:`~repro.runtime.ShardedMonitor`) with an asyncio TCP
server speaking newline-delimited JSON over per-client sessions, with
admission control (token buckets, a bounded admission queue with
reject/shed policies, a load-keyed circuit breaker), a dead-letter
journal for poison batches, and graceful SIGTERM draining.  The
historical stdin line protocol of ``repro serve`` is a thin synchronous
adapter (:func:`~repro.serve.session.serve_lines`) over the same
protocol/session code.

An optional HTTP observability endpoint
(:class:`~repro.serve.http.ObservabilityEndpoint`, ``--http`` on the
CLI) shares the loop: Prometheus ``/metrics``, ``/healthz``,
drain-aware ``/readyz``, ``/slo``, ``/timeline.json``, and a
``/trace`` Perfetto download — see the endpoint table in
``docs/serving.md``.

This is the only unit allowed to use :mod:`asyncio` (rule RP017); see
``docs/serving.md`` for the protocol specification.
"""

from .admission import CircuitBreaker, TokenBucket
from .dlq import DeadLetter, DeadLetterQueue
from .http import ObservabilityEndpoint
from .protocol import ProtocolError, parse_json_line, parse_text_line
from .server import (
    ReproServer,
    ServeConfig,
    replay_dead_letters,
    replay_dead_letters_async,
    run_server,
)
from .session import MonitorBridge, Session, serve_lines

__all__ = [
    "CircuitBreaker",
    "DeadLetter",
    "DeadLetterQueue",
    "MonitorBridge",
    "ObservabilityEndpoint",
    "ProtocolError",
    "ReproServer",
    "ServeConfig",
    "Session",
    "TokenBucket",
    "parse_json_line",
    "parse_text_line",
    "replay_dead_letters",
    "replay_dead_letters_async",
    "run_server",
    "serve_lines",
]
