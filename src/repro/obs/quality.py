"""Filter-quality telemetry: candidate volume, pruning power, precision.

The paper evaluates the NPV dominance filter on two axes — how fast it
is (Figs 15-17) and how *selective* it is (Figs 13-14, false-positive
ratio).  This module carries the second axis into the serving path as
three families of instruments:

* ``filter.candidates{stream=...,query=...}`` — how many times each
  (stream, query) pair passed the dominance filter (one increment per
  emission from ``matches()``), recorded by
  :meth:`repro.core.monitor.StreamMonitor.matches` via
  :func:`record_candidates`;
* ``join.<engine>.pruned{dim=...}`` — which NPV dimension killed a
  failing candidate probe, recorded by each join engine via
  :func:`record_pruned` with the verdict of :func:`blame_dimension`
  (the blamed dimension is *diagnostic* — the first query dimension,
  in sorted order, that no stream vector covers alone — and
  ``dim="combination"`` when every dimension is individually coverable
  but no single stream vector dominates the whole query vector);
* ``filter.probe.*`` counters and the ``filter.fp_ratio_estimate``
  gauge — fed by the sampled precision probe
  (:class:`repro.core.verify.PrecisionProbe`) via :func:`record_probe`.
  The gauge renders as ``repro_filter_fp_ratio_estimate`` in Prometheus
  text and is the live counterpart of the offline fig13/fig14 ratio.

The probe's rate/time budget lives here too (:class:`ProbeBudget`),
because the instrumented packages — including ``repro.core`` — never
read clocks directly: the deadline arithmetic
happens in this module, on :func:`time.perf_counter`, and the core only
asks ``budget.expired()``.

Everything is gated on :data:`repro.obs.state.ENABLED`; call sites
additionally guard with ``obs.enabled()`` so a disabled run never even
builds the label dicts.
"""

from __future__ import annotations

import time
from typing import Any, Iterable, Mapping

from . import state
from .registry import counter, gauge


def record_candidates(pairs: Iterable[tuple[Any, Any]]) -> None:
    """Count one filter emission per (stream, query) pair.

    Called by ``matches()`` with the pair set the dominance filter just
    produced; each pair's counter is its own labelled series, so the
    per-pair candidate volume (the numerator of the paper's FP ratio)
    is visible without any offline pass.
    """
    if not state.ENABLED:
        return
    for stream_id, query_id in pairs:
        counter(
            "filter.candidates",
            labels={"stream": str(stream_id), "query": str(query_id)},
        ).inc()


def record_pruned(engine: str, dim: str) -> None:
    """Count one pruned candidate probe, blamed on ``dim``.

    ``engine`` is the short join-engine name (``nl``/``dsc``/...),
    ``dim`` a stringified NPV dimension or ``"combination"`` — the
    output shape of :func:`blame_dimension`.
    """
    if not state.ENABLED:
        return
    counter(f"join.{engine}.pruned", labels={"dim": dim}).inc()


def blame_dimension(
    query_vector: Mapping[Any, int], stream_vectors: Iterable[Mapping[Any, int]]
) -> str:
    """Which dimension killed a failed dominance check, as a string.

    A stream vector dominates the query vector only if it covers it on
    *every* dimension, so when no stream vector dominates there are two
    cases: some query dimension is not covered by any stream vector
    alone (we blame the first such dimension in sorted-by-``str``
    order — deterministic across engines), or every dimension is
    individually coverable but never by one vector at once
    (``"combination"``).  Diagnostic only; never consulted by the
    filter itself.
    """
    vectors = list(stream_vectors)
    for dim in sorted(query_vector, key=str):
        need = query_vector[dim]
        if not any(vector.get(dim, 0) >= need for vector in vectors):
            return str(dim)
    return "combination"


class ProbeBudget:
    """Rate + wall-clock budget for the sampled precision probe.

    ``rate`` is the fraction of emitted candidate pairs the probe may
    verify (0 disables, 1 verifies everything the time budget allows);
    ``budget_seconds`` caps how long one probe pass may spend before it
    starts skipping (``None`` = no time cap).  The deadline is armed by
    :meth:`start` and consulted with :meth:`expired` — the only clock
    reads in the whole probe path, kept in ``repro.obs`` because
    ``repro.core`` never reads ``time.*``.
    """

    __slots__ = ("rate", "budget_seconds", "_deadline")

    def __init__(self, rate: float = 0.1, budget_seconds: float | None = 0.050) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"probe rate must be in [0, 1], got {rate}")
        if budget_seconds is not None and budget_seconds < 0:
            raise ValueError(f"probe budget must be >= 0 seconds, got {budget_seconds}")
        self.rate = rate
        self.budget_seconds = budget_seconds
        self._deadline: float | None = None

    def start(self) -> None:
        """Arm the wall-clock deadline for one probe pass."""
        if self.budget_seconds is None:
            self._deadline = None
        else:
            self._deadline = time.perf_counter() + self.budget_seconds

    def expired(self) -> bool:
        """Has the armed deadline passed?  (False when uncapped.)"""
        if self._deadline is None:
            return False
        return time.perf_counter() >= self._deadline


def record_probe(checked: int, false_positives: int, skipped: int = 0) -> None:
    """Fold one probe pass into the cumulative precision estimate.

    Updates the ``filter.probe.checked`` / ``filter.probe.false_positive``
    / ``filter.probe.skipped`` counters and recomputes the
    ``filter.fp_ratio_estimate`` gauge from the *cumulative* counters,
    so the gauge converges as samples accumulate rather than jittering
    with each pass.
    """
    if not state.ENABLED:
        return
    checked_counter = counter("filter.probe.checked")
    fp_counter = counter("filter.probe.false_positive")
    counter("filter.probe.skipped").inc(skipped)
    checked_counter.inc(checked)
    fp_counter.inc(false_positives)
    if checked_counter.value:
        gauge("filter.fp_ratio_estimate").set(
            fp_counter.value / checked_counter.value
        )
