"""repro.obs — zero-dependency observability for the stream monitor.

Three primitives, one switch:

* **Spans** — ``with obs.span("monitor.apply", stream=sid): ...`` times
  a stage monotonically, records nesting into a bounded ring buffer
  (:func:`spans`), and feeds a ``"<name>.seconds"`` latency histogram.
* **Instruments** — :func:`counter` / :func:`gauge` / :func:`histogram`
  get-or-create typed instruments in the process-local
  :class:`Registry`; per-worker registries merge losslessly with
  :func:`merge_summaries` (the runtime coordinator does this at poll
  time).
* **Exposition** — :func:`repro.obs.exposition.render_prometheus` /
  :func:`~repro.obs.exposition.render_json` turn any summary (live,
  dumped, or merged) into scrapeable text; surfaced as ``repro stats``
  and the ``--stats-every`` replay/serve flags.

Two further layers ride on the same switch:

* **Traces** — every span carries trace/span/parent ids minted by
  :mod:`repro.obs.trace` (the only minting site) and
  propagated across the runtime's process boundary by
  :func:`stamp_envelope` / :func:`split_envelope` / :func:`attached`,
  so one coordinator ``apply`` and all worker-side work it causes form
  a single tree.  :func:`to_chrome` exports collected spans as Chrome
  trace-event / Perfetto JSON; :func:`render_critical_spans` is the
  plain-text top-N view.  Surfaced as ``repro trace``.
* **Filter quality** — :mod:`repro.obs.quality` hosts the rate/time
  budget of the sampled precision probe that feeds the live
  ``filter.fp_ratio_estimate`` gauge (``repro_filter_fp_ratio_estimate``
  in Prometheus text).  Candidate and pruning counts are recorded by
  :meth:`repro.join.base.JoinEngine.candidates`, the one site.

Three historically-aware layers build on the snapshots.  Only the
serving edge, the dashboard and their CLI verbs run them, so the package
root does not import them (nor :mod:`repro.obs.exposition`): import each
from its own module.

* **Timeline** — :class:`repro.obs.timeline.Timeline` keeps a bounded
  delta-encoded ring of periodic registry snapshots;
  :class:`~repro.obs.timeline.Window` answers windowed rates and
  *windowed* histogram quantiles from bucket deltas (what ``repro top``
  and the SLO engine consume instead of lifetime-cumulative values).
* **SLOs** — :class:`repro.obs.slo.SloEngine` evaluates declarative
  :class:`~repro.obs.slo.SloRule` objectives over the timeline with
  ok/warn/breach hysteresis, exporting ``slo.state`` / ``slo.breaches``
  back into the registry.
* **Flight recorder** — :class:`repro.obs.flight.FlightRecorder`
  journals refusals and worker command notes to a bounded ring and an
  eagerly-flushed JSONL file that survives SIGKILL; full snapshots dump
  on crash or SIGUSR2 (:func:`~repro.obs.flight.install_signal_dump`).
  Every metric name these layers reference must exist in
  :mod:`repro.obs.catalog` (``tests/fitness/test_metric_catalog.py``).

:func:`disable` flips the whole subsystem to a near-zero-overhead
no-op path (one flag check per site; the end-to-end benchmark's
``obs.enabled_cost_ratio`` measures on against off); ``REPRO_OBS=0`` in the
environment starts a process disabled.  The instrumented packages
never read ``time.*`` themselves, so this module stays the single
source of timing truth — see ``docs/observability.md``.
"""

from . import catalog, quality, trace
from .instruments import (
    Counter,
    DEFAULT_LATENCY_BUCKETS,
    Gauge,
    Histogram,
    Registry,
    escape_label_value,
    instrument_key,
    merge_summaries,
    validate_labels,
)
from .registry import counter, gauge, get_registry, histogram, set_registry
from .spans import (
    DEFAULT_SPAN_CAPACITY,
    SpanRecord,
    clear_spans,
    iter_spans,
    last_span,
    set_span_capacity,
    span,
    span_depth,
    spans,
)
from .state import disable, enable, enabled
from .trace import (
    TraceContext,
    attached,
    current_context,
    new_span_id,
    new_trace_id,
    process_label,
    render_critical_spans,
    set_process_label,
    split_envelope,
    stamp_envelope,
    to_chrome,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SPAN_CAPACITY",
    "Gauge",
    "Histogram",
    "Registry",
    "SpanRecord",
    "TraceContext",
    "attached",
    "catalog",
    "clear_spans",
    "counter",
    "current_context",
    "disable",
    "enable",
    "enabled",
    "escape_label_value",
    "gauge",
    "get_registry",
    "histogram",
    "instrument_key",
    "iter_spans",
    "last_span",
    "merge_summaries",
    "new_span_id",
    "new_trace_id",
    "process_label",
    "quality",
    "render_critical_spans",
    "set_process_label",
    "set_registry",
    "set_span_capacity",
    "span",
    "span_depth",
    "spans",
    "split_envelope",
    "stamp_envelope",
    "to_chrome",
    "trace",
    "validate_labels",
]
