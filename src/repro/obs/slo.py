"""Declarative SLO rules evaluated over the metrics timeline.

A :class:`SloRule` names one objective over one metric — a windowed
histogram quantile ceiling (``p95 serve.commit.seconds < 0.5s``), a
gauge ceiling or floor (FP-ratio estimate, worker inbox depth), or a
windowed rate ceiling (rejections per second) — and the hysteresis that
turns raw measurements into an operational state:

* ``ok``     — the objective holds;
* ``warn``   — it has been violated for at least ``warn_after``
  consecutive evaluations (the burn has started);
* ``breach`` — violated for ``breach_after`` consecutive evaluations.

Recovery is also hysteretic: a warned/breached rule returns to ``ok``
only after ``clear_after`` consecutive healthy evaluations, so a
flapping metric cannot ring the state bell on every sample.

:class:`SloEngine` owns the per-rule state machines, evaluates them
against a :class:`~repro.obs.timeline.Timeline`, and exports the result
as metrics in the same registry it watches: ``slo.state{rule=...}``
(0/1/2) and ``slo.breaches{rule=...}`` (transitions into breach) — so a
scrape of ``/metrics`` carries the SLO verdicts alongside the raw
series they were computed from.

Rules with no data (the metric has never been observed inside the
window) evaluate to ``ok`` — an SLO over an idle subsystem is not
burning.  The typo-shaped failure mode this invites (a misspelled
metric name is *permanently* idle) is exactly what
``tests/fitness/test_metric_catalog.py`` guards against: every metric
name referenced here must exist in :mod:`repro.obs.catalog`.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable, NamedTuple

from .registry import counter, gauge
from .timeline import Timeline

__all__ = [
    "BREACH",
    "DEFAULT_RULES",
    "OK",
    "OBJECTIVES",
    "STATE_CODES",
    "SloEngine",
    "SloRule",
    "WARN",
]

OK = "ok"
WARN = "warn"
BREACH = "breach"

#: state name -> exported gauge code.
STATE_CODES = {OK: 0, WARN: 1, BREACH: 2}

#: quantile: windowed histogram quantile must stay <= threshold;
#: gauge_max / gauge_min: latest gauge value vs threshold;
#: rate_max: windowed per-second rate must stay <= threshold.
OBJECTIVES = ("quantile", "gauge_max", "gauge_min", "rate_max")


class _SloFields(NamedTuple):
    name: str
    metric: str
    objective: str
    threshold: float
    q: float = 0.95  # quantile objectives only
    window: float = 60.0  # trailing evaluation window in seconds
    warn_after: int = 1  # consecutive violations before warn
    breach_after: int = 3  # consecutive violations before breach
    clear_after: int = 2  # consecutive OKs before recovery
    description: str = ""


class SloRule(_SloFields):
    """One declarative objective over one catalogued metric, checked on
    construction (``_replace`` skips the checks: build a new rule)."""

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> "SloRule":
        rule = super().__new__(cls, *args, **kwargs)
        if rule.objective not in OBJECTIVES:
            raise ValueError(
                f"objective must be one of {OBJECTIVES}, got {rule.objective!r}"
            )
        if not 0.0 <= rule.q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {rule.q}")
        if rule.window <= 0:
            raise ValueError(f"window must be > 0 seconds, got {rule.window}")
        if rule.warn_after < 1 or rule.breach_after < rule.warn_after:
            raise ValueError(
                f"need 1 <= warn_after <= breach_after, got "
                f"{rule.warn_after}/{rule.breach_after}"
            )
        if rule.clear_after < 1:
            raise ValueError(f"clear_after must be >= 1, got {rule.clear_after}")
        return rule

    def violated_by(self, value: float) -> bool:
        """Does one measured value violate this objective?"""
        if self.objective == "gauge_min":
            return value < self.threshold
        return value > self.threshold


#: The stock production rules (CLI-overridable): paper-facing quality
#: gauges plus the serving KPIs the overload tests script against.
DEFAULT_RULES: tuple[SloRule, ...] = (
    SloRule(
        "commit-latency-p95",
        "serve.commit.seconds",
        "quantile",
        0.5,
        q=0.95,
        description="p95 serve commit latency stays under 500ms",
    ),
    SloRule(
        "fp-ratio",
        "filter.fp_ratio_estimate",
        "gauge_max",
        0.5,
        description="sampled filter false-positive ratio stays under 0.5",
    ),
    SloRule(
        "inbox-depth",
        "runtime.inbox_depth",
        "gauge_max",
        256.0,
        description="deepest worker inbox stays under 256 queued commands",
    ),
    SloRule(
        "reject-rate",
        "serve.rejected",
        "rate_max",
        5.0,
        breach_after=2,
        description="edge rejections stay under 5/s over the window",
    ),
)


class _RuleState:
    """The mutable half of one rule: its hysteresis counters."""

    __slots__ = ("state", "violations", "oks", "breaches", "value", "changed_at")

    def __init__(self) -> None:
        self.state = OK
        self.violations = 0
        self.oks = 0
        self.breaches = 0
        self.value: float | None = None
        self.changed_at: float | None = None


class SloEngine:
    """Evaluates a rule set against a timeline, exporting the verdicts."""

    def __init__(
        self,
        rules: Iterable[SloRule] | None = None,
        timeline: Timeline | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.rules: tuple[SloRule, ...] = (
            tuple(rules) if rules is not None else DEFAULT_RULES
        )
        names = [rule.name for rule in self.rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO rule names in {names}")
        self.timeline = timeline
        self._clock = clock
        self._states = {rule.name: _RuleState() for rule in self.rules}

    # -- measurement -------------------------------------------------------

    def _measure(self, rule: SloRule, timeline: Timeline) -> float | None:
        window = timeline.window(rule.window)
        if rule.objective == "quantile":
            return window.quantile(rule.metric, rule.q)
        if rule.objective == "rate_max":
            return window.rate(rule.metric)
        return window.gauge(rule.metric)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, timeline: Timeline | None = None) -> list[dict[str, Any]]:
        """Advance every rule's state machine one step; returns the
        per-rule snapshots (the ``/slo`` payload's ``rules`` list)."""
        active = timeline if timeline is not None else self.timeline
        if active is None:
            raise ValueError("SloEngine.evaluate needs a timeline")
        now = self._clock()
        results = []
        for rule in self.rules:
            status = self._states[rule.name]
            value = self._measure(rule, active)
            violating = value is not None and rule.violated_by(value)
            previous = status.state
            if violating:
                status.oks = 0
                status.violations += 1
                if status.violations >= rule.breach_after:
                    status.state = BREACH
                elif status.violations >= rule.warn_after and previous != BREACH:
                    status.state = WARN
            else:
                status.violations = 0
                status.oks += 1
                if previous != OK and status.oks >= rule.clear_after:
                    status.state = OK
            if status.state != previous:
                status.changed_at = now
                if status.state == BREACH:
                    status.breaches += 1
                    counter("slo.breaches", labels={"rule": rule.name}).inc()
            status.value = value
            gauge("slo.state", labels={"rule": rule.name}).set(
                STATE_CODES[status.state]
            )
            results.append(self._snapshot_rule(rule, status))
        return results

    # -- reporting ---------------------------------------------------------

    @staticmethod
    def _snapshot_rule(rule: SloRule, status: _RuleState) -> dict[str, Any]:
        return {
            "name": rule.name,
            "metric": rule.metric,
            "objective": rule.objective,
            "threshold": rule.threshold,
            "q": rule.q if rule.objective == "quantile" else None,
            "window": rule.window,
            "description": rule.description,
            "state": status.state,
            "value": status.value,
            "violations": status.violations,
            "oks": status.oks,
            "breaches": status.breaches,
            "changed_at": status.changed_at,
        }

    def state_of(self, name: str) -> str:
        """Current state of one rule by name."""
        return self._states[name].state

    @property
    def worst(self) -> str:
        """The worst state across every rule."""
        ranked = max(
            (STATE_CODES[status.state] for status in self._states.values()),
            default=0,
        )
        for state_name, code in STATE_CODES.items():
            if code == ranked:
                return state_name
        return OK

    def snapshot(self) -> dict[str, Any]:
        """The full ``/slo`` payload (no re-evaluation)."""
        return {
            "worst": self.worst,
            "rules": [
                self._snapshot_rule(rule, self._states[rule.name])
                for rule in self.rules
            ],
        }
