"""Bounded delta-encoded time series over registry snapshots.

The registry (:class:`~repro.obs.instruments.Registry`) is point-in-time
and lifetime-cumulative: counters only grow, and a histogram's buckets
remember every observation since the process started.  That shape is
right for lossless merging but wrong for operations questions — "what
is the apply rate *now*?", "what was p95 commit latency *over the last
minute*?".  A single early latency spike skews a lifetime percentile
forever.

:class:`Timeline` fixes this by periodically folding summaries into a
bounded ring of **delta-encoded samples**: each sample stores only the
counter increments and histogram bucket increments since the previous
sample (sparse — unchanged series cost nothing) plus the absolute gauge
values.  Windows over the ring recover rates (counter delta / elapsed)
and *windowed* histogram percentiles (quantiles over the summed bucket
deltas inside the window, Prometheus ``histogram_quantile`` style).

The very first sample is a **baseline**: it records gauge values but no
deltas, because the interval it would cover is unknown.  Everything
after it is pure between-sample activity.

All clock reads stay in this module (``repro.obs`` is the single source
of timing truth — ``time.*`` stays out of the instrumented
packages); callers can inject a fake
clock for deterministic tests.

A counter or histogram that goes *down* between two summaries was
reset — a respawned worker's registry restarts from zero, a retired
one drops out of the merge — so, as Prometheus ``rate()`` reads it,
its current value is the delta.  No sample ever holds a negative delta.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Callable, Iterable, Mapping

from . import state
from .registry import counter as _counter

__all__ = [
    "DEFAULT_TIMELINE_CAPACITY",
    "Timeline",
    "TimelineSample",
    "Window",
    "bucket_quantile",
]

DEFAULT_TIMELINE_CAPACITY = 512


def _matches(key: str, name: str) -> bool:
    """Does a summary key belong to metric ``name`` (any label set)?"""
    return key == name or key.startswith(name + "{")


def bucket_quantile(
    bounds: Iterable[float], counts: Iterable[float], q: float
) -> float | None:
    """The q-quantile of one (bounds, per-bucket counts) pair.

    Standard Prometheus-style estimation: find the bucket where the
    cumulative count crosses ``q * total`` and interpolate linearly
    inside it.  ``counts`` has one more entry than ``bounds`` (the
    overflow bucket, which reports the last finite bound since it has
    no upper edge).  None for empty data.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    bounds = list(bounds)
    counts = list(counts)
    total = sum(counts)
    if not total:
        return None
    target = q * total
    cumulative = 0.0
    for i, count in enumerate(counts):
        previous = cumulative
        cumulative += count
        if cumulative >= target:
            if i >= len(bounds):
                return bounds[-1]
            lower = bounds[i - 1] if i else 0.0
            upper = bounds[i]
            if not count:
                return upper
            return lower + (upper - lower) * (target - previous) / count
    return bounds[-1]


class TimelineSample:
    """One delta-encoded ring entry.

    ``counters`` maps summary keys to their increment since the previous
    sample (only non-zero entries are stored); ``histograms`` maps keys
    to sparse ``{"bounds", "counts", "sum", "count"}`` delta entries
    (only histograms that saw observations); ``gauges`` stores absolute
    values.  ``dt`` is the seconds since the previous sample (0.0 for
    the baseline sample).
    """

    __slots__ = ("t", "dt", "counters", "gauges", "histograms")

    def __init__(
        self,
        t: float,
        dt: float,
        counters: dict[str, float],
        gauges: dict[str, float],
        histograms: dict[str, dict[str, Any]],
    ) -> None:
        self.t = t
        self.dt = dt
        self.counters = counters
        self.gauges = gauges
        self.histograms = histograms

    def to_dict(self) -> dict[str, Any]:
        """JSON-representable form (``/timeline.json``)."""
        return {
            "t": self.t,
            "dt": self.dt,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                key: dict(entry) for key, entry in self.histograms.items()
            },
        }


class Window:
    """Aggregate view over the samples inside one trailing window."""

    def __init__(self, samples: list[TimelineSample]) -> None:
        self.samples = samples
        #: Seconds of activity the included deltas cover.
        self.duration = sum(sample.dt for sample in samples)

    def __len__(self) -> int:
        return len(self.samples)

    def delta(self, name: str) -> float:
        """Total counter increment of ``name`` (all label sets) inside
        the window; histogram names report their observation-count
        increment."""
        total = 0.0
        for sample in self.samples:
            for key, value in sample.counters.items():
                if _matches(key, name):
                    total += value
            for key, entry in sample.histograms.items():
                if _matches(key, name):
                    total += entry["count"]
        return total

    def rate(self, name: str) -> float | None:
        """Per-second rate of ``name`` over the window (None when the
        window spans no elapsed time)."""
        if self.duration <= 0.0:
            return None
        return self.delta(name) / self.duration

    def gauge(self, name: str) -> float | None:
        """Latest value of gauge ``name`` inside the window, summed
        across label sets (the :func:`merge_summaries` convention).
        None when no sample in the window carries the gauge."""
        for sample in reversed(self.samples):
            values = [
                value
                for key, value in sample.gauges.items()
                if _matches(key, name)
            ]
            if values:
                return float(sum(values))
        return None

    def histogram(self, name: str) -> dict[str, Any] | None:
        """The summed bucket-delta entry of histogram ``name`` (all
        label sets merged — bounds are identical by construction).
        Shape-compatible with a registry summary entry, so it feeds
        :func:`repro.dashboard.histogram_quantile` unchanged."""
        merged: dict[str, Any] | None = None
        for sample in self.samples:
            for key, entry in sample.histograms.items():
                if not _matches(key, name):
                    continue
                if merged is None:
                    merged = {
                        "kind": "histogram",
                        "bounds": list(entry["bounds"]),
                        "counts": list(entry["counts"]),
                        "sum": entry["sum"],
                        "count": entry["count"],
                    }
                else:
                    merged["counts"] = [
                        a + b for a, b in zip(merged["counts"], entry["counts"])
                    ]
                    merged["sum"] += entry["sum"]
                    merged["count"] += entry["count"]
        return merged

    def quantile(self, name: str, q: float) -> float | None:
        """Windowed q-quantile of histogram ``name`` (None: no data)."""
        entry = self.histogram(name)
        if entry is None:
            return None
        return bucket_quantile(entry["bounds"], entry["counts"], q)


class Timeline:
    """Bounded ring of delta-encoded registry snapshots."""

    def __init__(
        self,
        capacity: int = DEFAULT_TIMELINE_CAPACITY,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 2:
            raise ValueError(f"timeline capacity must be >= 2, got {capacity}")
        self._samples: deque[TimelineSample] = deque(maxlen=capacity)
        self._clock = clock
        #: key -> last absolute value (counters) / (counts, sum, count)
        #: triple (histograms), the delta-encoding reference point.
        self._previous: dict[str, Any] = {}
        self._previous_t: float | None = None
        self._latest_summary: Mapping[str, Any] = {}
        self._sampled = 0

    @property
    def capacity(self) -> int:
        maxlen = self._samples.maxlen
        assert maxlen is not None
        return maxlen

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def sampled(self) -> int:
        """Total samples ever taken (including ones that fell off)."""
        return self._sampled

    def latest(self) -> Mapping[str, Any]:
        """The last absolute summary folded in (lifetime-cumulative)."""
        return self._latest_summary

    def sample(
        self, summary: Mapping[str, Any], t: float | None = None
    ) -> TimelineSample:
        """Fold one registry summary in; returns the recorded sample.

        The first call is the baseline (gauges only, ``dt`` 0); each
        later call stores the sparse increments against the previous
        summary.  ``t`` defaults to the injected clock and must not run
        backwards.
        """
        if t is None:
            t = self._clock()
        baseline = self._previous_t is None
        dt = 0.0 if baseline else max(t - (self._previous_t or 0.0), 0.0)
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict[str, Any]] = {}
        reference: dict[str, Any] = {}
        for key, entry in summary.items():
            kind = entry.get("kind")
            if kind == "counter":
                value = float(entry["value"])
                reference[key] = value
                if not baseline:
                    previous = float(self._previous.get(key, 0.0))
                    # A counter that went down was reset (a respawned or
                    # retired worker): count its current value, as
                    # Prometheus rate() does.
                    delta = value - previous if value >= previous else value
                    if delta:
                        counters[key] = delta
            elif kind == "gauge":
                gauges[key] = float(entry["value"])
            elif kind == "histogram":
                counts = list(entry["counts"])
                total = int(entry["count"])
                reference[key] = (counts, float(entry["sum"]), total)
                if baseline:
                    continue
                empty = ([0] * len(counts), 0.0, 0)
                prev_counts, prev_sum, prev_total = self._previous.get(key, empty)
                if total < prev_total or any(
                    a < b for a, b in zip(counts, prev_counts)
                ):
                    # Reset, as for counters: the current buckets are the delta.
                    prev_counts, prev_sum, prev_total = empty
                delta_total = total - prev_total
                if delta_total:
                    histograms[key] = {
                        "bounds": list(entry["bounds"]),
                        "counts": [
                            a - b for a, b in zip(counts, prev_counts)
                        ],
                        "sum": float(entry["sum"]) - prev_sum,
                        "count": delta_total,
                    }
        recorded = TimelineSample(t, dt, counters, gauges, histograms)
        self._samples.append(recorded)
        self._previous = reference
        self._previous_t = t
        self._latest_summary = summary
        self._sampled += 1
        if state.ENABLED:
            _counter("timeline.samples").inc()
        return recorded

    def window(self, seconds: float | None = None) -> Window:
        """The trailing window ending at the newest sample.

        ``seconds=None`` covers every buffered sample.  The baseline
        sample contributes no deltas, so windows measure pure
        between-sample activity.
        """
        samples = list(self._samples)
        if not samples or seconds is None:
            return Window(samples)
        cutoff = samples[-1].t - seconds
        return Window([sample for sample in samples if sample.t >= cutoff])

    def series(self, name: str, points: int = 60) -> list[float]:
        """Per-sample values of ``name``, oldest first, at most
        ``points`` newest samples: counter/histogram names yield
        per-second rates per sample interval, gauges their absolute
        value (carried forward over gaps, 0.0 before first seen)."""
        samples = list(self._samples)[-points:]
        out: list[float] = []
        last_gauge = 0.0
        for sample in samples:
            gauge_values = [
                value
                for key, value in sample.gauges.items()
                if _matches(key, name)
            ]
            if gauge_values:
                last_gauge = float(sum(gauge_values))
                out.append(last_gauge)
                continue
            total = 0.0
            seen = False
            for key, value in sample.counters.items():
                if _matches(key, name):
                    total += value
                    seen = True
            for key, entry in sample.histograms.items():
                if _matches(key, name):
                    total += entry["count"]
                    seen = True
            if seen and sample.dt > 0.0:
                out.append(total / sample.dt)
            elif seen:
                out.append(total)
            else:
                # No activity this interval: a counter reads 0, a gauge
                # carries its last seen value forward (last_gauge starts
                # at 0.0, so pure-counter series stay at zero).
                out.append(last_gauge)
        return out

    def to_json(self) -> dict[str, Any]:
        """JSON-representable dump for ``/timeline.json``."""
        return {
            "capacity": self.capacity,
            "sampled": self._sampled,
            "samples": [sample.to_dict() for sample in self._samples],
        }

