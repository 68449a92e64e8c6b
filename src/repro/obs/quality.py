"""Filter-quality telemetry: the sampled precision probe.

The paper evaluates the NPV dominance filter on two axes — how fast it
is (Figs 15-17) and how *selective* it is (Figs 13-14, false-positive
ratio).  The selectivity counters are recorded where the verdicts are
made, in :meth:`repro.join.base.JoinEngine.candidates`: one unlabelled
``filter.candidates`` counter (pairs passed, summed over polls) and
``join.<engine>.pruned{dim=...}`` (pairs pruned per poll, by blamed
dimension, under one definition for every engine).  This module feeds
the rest: the ``filter.probe.*`` counters and the
``filter.fp_ratio_estimate`` gauge of the sampled precision probe
(:class:`repro.core.verify.PrecisionProbe`) via :func:`record_probe`.
The gauge renders as ``repro_filter_fp_ratio_estimate`` in Prometheus
text and is the live counterpart of the offline fig13/fig14 ratio.

The probe's rate/time budget lives here too (:class:`ProbeBudget`),
because the instrumented packages — including ``repro.core`` — never
read clocks directly: the deadline arithmetic
happens in this module, on :func:`time.perf_counter`, and the core only
asks ``budget.expired()``.

Everything is gated on :data:`repro.obs.state.ENABLED`.
"""

from __future__ import annotations

import time

from . import state
from .registry import counter, gauge


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
