"""``repro.serve`` — the network serving layer.

Fronts a monitor (library :class:`~repro.core.monitor.StreamMonitor` or
sharded :class:`~repro.runtime.ShardedMonitor`) with a TCP server (one
:mod:`selectors` loop on one thread) speaking newline-delimited JSON
over per-client sessions, with one bounded admission queue that refuses
with a ``retry_after`` hint when full, ``ok: false`` refusals of poison
batches, and graceful SIGTERM draining.  The historical stdin line protocol of ``repro
serve`` is a thin synchronous adapter
(:func:`~repro.serve.session.serve_lines`) over the same
protocol/session code.

An optional HTTP observability endpoint
(:class:`~repro.serve.http.ObservabilityEndpoint`, ``--http`` on the
CLI) shares the loop: Prometheus ``/metrics``, ``/healthz``,
drain-aware ``/readyz``, ``/slo``, ``/timeline.json``, and a
``/trace`` Perfetto download — see the endpoint table in
``docs/serving.md``.

The package root imports nothing, so a process that only parses the
wire protocol never loads the server.  Import each piece from its
module: ``ReproServer``/``ServeConfig``/``run_server`` from
:mod:`repro.serve.server`, ``MonitorBridge``/``Session``/``serve_lines``
from :mod:`repro.serve.session`, ``ObservabilityEndpoint`` from
:mod:`repro.serve.http` and the parsers from :mod:`repro.serve.protocol`.

No module of ``repro`` imports :mod:`asyncio` (nor, through it,
:mod:`ssl`); see ``docs/serving.md`` for the protocol specification.
"""
