"""``repro top`` — a live plain-terminal dashboard over ``stats()``.

Pure stdlib and pure functions: :func:`render_dashboard` turns one
stats dict (the shape returned by ``StreamMonitor.stats()`` +
observability summary, or ``ShardedMonitor.stats()`` with its
``merged_obs``) into one fixed-width text frame, and :func:`run_top`
repaints frames from a caller-supplied poll callable using ANSI
clear-screen — no curses dependency, works in any VT100-ish terminal
and degrades to plain appended frames when piped.

The dashboard never touches the monitoring stack itself (layering: this
unit may import only :mod:`repro.obs`): the CLI decides whether the
poll callable reads a local monitor, replays a workload, or parses
``repro serve`` JSON lines.

Latency percentiles are **windowed** whenever a
:class:`~repro.obs.timeline.Timeline` is supplied (``run_top`` keeps
one internally): quantiles come from histogram-bucket *deltas* over the
trailing window, so one early spike no longer skews the numbers
forever; without a timeline (single ``--dump`` frames) they fall back
to the lifetime-cumulative histogram, marked ``lifetime``.  The
timeline also powers the overload panel — per-sample admitted and
rejected rate sparklines.

Shown per frame: apply-latency percentiles (from the
``monitor.apply.seconds`` histogram), poll/event counters, worker inbox
depths, inbox capacity and accepted batches (sharded runs), the payload rings
and rescale status (``shm=True`` runs: ring count, ring-overflow
counter, queue bytes pickled, last-rescale duration and whether one is
in flight), live query churn (registered count,
registration/retirement totals, dedup group count, and the latency
percentiles of the outermost ``<layer>.register_query`` span that
ran), the serving edge when the stats
came from a ``repro serve`` server (active sessions, admission queue
depth, admit/reject/refused counts and commit latency percentiles),
per-dimension pruning power
(the ``join.<engine>.pruned{dim=...}`` counters
:meth:`repro.join.base.JoinEngine.candidates` records), and the live false-positive-ratio estimate
gauge when the precision probe is running.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Mapping, TextIO

from .obs.timeline import Timeline, bucket_quantile

ANSI_CLEAR = "\x1b[2J\x1b[H"

#: Quantiles shown for latency histograms.
PERCENTILES = (0.50, 0.90, 0.99)

#: Glyph ramp for rate sparklines, lowest to highest.
_SPARK_LEVELS = " .:-=+*#%@"

#: A registration is timed by every layer it crosses, outermost first.
_REGISTER_SPANS = (
    "serve.register_query.seconds",
    "runtime.register_query.seconds",
    "monitor.register_query.seconds",
)


def histogram_quantile(entry: Mapping[str, Any], q: float) -> float | None:
    """Approximate the q-quantile of a histogram summary entry
    (:func:`repro.obs.timeline.bucket_quantile` of its buckets; None
    for an empty histogram)."""
    return bucket_quantile(entry["bounds"], entry["counts"], q)


def _fmt_seconds(value: float | None) -> str:
    if value is None:
        return "-"
    if value < 1e-3:
        return f"{value * 1e6:.0f}us"
    if value < 1.0:
        return f"{value * 1e3:.2f}ms"
    return f"{value:.3f}s"


def _obs_summary(stats: Mapping[str, Any]) -> Mapping[str, Any]:
    """The observability summary inside a stats dict, whichever path
    produced it (sharded ``merged_obs``, worker ``obs``, or a bare
    summary passed directly)."""
    for key in ("merged_obs", "obs"):
        nested = stats.get(key)
        if isinstance(nested, Mapping):
            return nested
    # A registry summary itself (every value has a "kind").
    if all(isinstance(v, Mapping) and "kind" in v for v in stats.values()) and stats:
        return stats
    return {}


def _series(summary: Mapping[str, Any], base: str) -> list[tuple[dict, Mapping]]:
    """(labels, entry) pairs of every series of one metric base name."""
    out: list[tuple[dict, Mapping]] = []
    for key, entry in summary.items():
        if key == base or key.startswith(base + "{"):
            out.append((dict(entry.get("labels") or {}), entry))
    return out


def _value(summary: Mapping[str, Any], name: str) -> float:
    entry = summary.get(name)
    return float(entry["value"]) if entry else 0.0


def _sparkline(values: list[float], width: int = 30) -> str:
    """Values as a fixed-width ASCII sparkline, scaled to their max."""
    if not values:
        return " " * width
    shown = values[-width:]
    peak = max(shown)
    top = len(_SPARK_LEVELS) - 1
    glyphs = "".join(
        _SPARK_LEVELS[round(v / peak * top)] if peak > 0 else _SPARK_LEVELS[0]
        for v in shown
    )
    return glyphs.rjust(width)


def _windowed_histogram(
    summary: Mapping[str, Any], timeline: Timeline | None, name: str
) -> tuple[Mapping[str, Any] | None, bool]:
    """The histogram entry to show for ``name``: windowed bucket deltas
    when the timeline has observations in its window, else the
    lifetime-cumulative summary entry.  Returns (entry, windowed?)."""
    if timeline is not None:
        entry = timeline.window().histogram(name)
        if entry is not None and entry.get("count"):
            return entry, True
    return summary.get(name), False


def _latency_line(
    label: str,
    summary: Mapping[str, Any],
    timeline: Timeline | None,
    name: str,
) -> str | None:
    entry, windowed = _windowed_histogram(summary, timeline, name)
    if not entry:
        return None
    quantiles = "  ".join(
        f"p{int(q * 100):02d}={_fmt_seconds(histogram_quantile(entry, q))}"
        for q in PERCENTILES
    )
    scope = "window" if windowed else "lifetime"
    return f"{label}{quantiles}  (n={entry.get('count', 0)}, {scope})"


def _overload_panel(timeline: Timeline | None, width: int) -> list[str]:
    """The serving-edge overload timeline: per-sample rate sparklines
    for admitted/rejected.  Empty when there is no timeline or the edge
    has seen no admission traffic yet."""
    if timeline is None or len(timeline) < 2:
        return []
    spark_width = max(min(width - 26, 60), 10)
    series = {
        name: timeline.series(f"serve.{name}", points=spark_width)
        for name in ("admitted", "rejected")
    }
    if not any(any(values) for values in series.values()):
        return []
    lines = ["overload timeline (per-sample rates, newest right)"]
    for name, values in series.items():
        peak = max(values) if values else 0.0
        lines.append(
            f"  {name:<9} [{_sparkline(values, spark_width)}]  peak={peak:.1f}/s"
        )
    return lines


def render_dashboard(
    stats: Mapping[str, Any],
    width: int = 78,
    timeline: Timeline | None = None,
) -> str:
    """One text frame of the dashboard from one stats snapshot.

    With a ``timeline``, latency percentiles are computed over the
    trailing window's histogram-bucket deltas and the overload panel
    (admitted/rejected sparklines) is rendered.
    """
    summary = _obs_summary(stats)
    lines: list[str] = []
    rule = "-" * width
    lines.append("repro top" + " " * max(width - 9, 0))
    lines.append(rule)

    # -- workload shape ------------------------------------------------
    shape: list[str] = []
    for key, label in (
        ("num_streams", "streams"),
        ("num_queries", "queries"),
        ("num_workers", "workers"),
        ("method", "engine"),
    ):
        if key in stats:
            shape.append(f"{label}={stats[key]}")
    if shape:
        lines.append("  ".join(shape))

    # -- latency ---------------------------------------------------------
    apply_line = _latency_line(
        "apply latency   ", summary, timeline, "monitor.apply.seconds"
    )
    if apply_line:
        lines.append(apply_line)
    polls = _value(summary, "monitor.polls")
    changes = _value(summary, "monitor.changes")
    events = _value(summary, "monitor.events")
    lines.append(
        f"throughput      changes={changes:.0f}  polls={polls:.0f}  events={events:.0f}"
    )

    # -- runtime backpressure ---------------------------------------------
    depths = stats.get("inbox_depths")
    if isinstance(depths, Mapping):
        shown = "  ".join(f"shard{shard}={depth}" for shard, depth in sorted(depths.items()))
        lines.append(f"inbox depth     {shown}")
    backpressure = stats.get("backpressure")
    if isinstance(backpressure, Mapping):
        lines.append(
            "backpressure    capacity={queue_capacity}  "
            "accepted={accepted_batches}".format(**backpressure)
        )

    # -- payload rings & resharding ------------------------------------------
    shm = stats.get("shm")
    if isinstance(shm, Mapping):
        overflows = _value(summary, "shm.ring_overflow")
        queue_bytes = _value(summary, "runtime.bytes_pickled")
        lines.append(
            f"shm rings       rings={shm.get('rings', 0)}  "
            f"ring_overflows={overflows:.0f}  queue_bytes={queue_bytes:.0f}"
        )
    rescale = stats.get("rescale")
    if isinstance(rescale, Mapping):
        last = rescale.get("last_seconds") or None
        lines.append(
            f"rescale         count={rescale.get('count', 0)}  last={_fmt_seconds(last)}"
        )

    # -- live query churn --------------------------------------------------
    churn = stats.get("queries")
    if isinstance(churn, Mapping):
        lines.append(
            f"query churn     registered={churn.get('registered', 0)}  "
            f"adds={churn.get('registrations', 0)}  "
            f"drops={churn.get('deregistrations', 0)}  "
            f"dedup_groups={churn.get('groups', 0)}"
        )
        for name in _REGISTER_SPANS:
            register_line = _latency_line("register latency ", summary, timeline, name)
            if register_line:
                lines.append(register_line)
                break

    # -- serving edge ------------------------------------------------------
    serve = stats.get("serve")
    if isinstance(serve, Mapping):
        rejected = sum(
            value
            for key, value in serve.items()
            if key.startswith("rejected_") and isinstance(value, (int, float))
        )
        lines.append(
            f"serve           sessions={serve.get('sessions', 0)}  "
            f"queue={serve.get('queue_depth', 0)}  "
            f"t={serve.get('timestamp', 0)}"
        )
        lines.append(
            f"admission       admitted={serve.get('admitted', 0)}  "
            f"rejected={rejected:.0f}  "
            f"refused={serve.get('dead_letters', 0)}  "
            f"batches={serve.get('accepted_batches', 0)}"
        )
        commit_line = _latency_line(
            "commit latency  ", summary, timeline, "serve.commit.seconds"
        )
        if commit_line:
            lines.append(commit_line)

    # -- overload timeline -------------------------------------------------
    overload = _overload_panel(timeline, width)
    if overload:
        lines.append(rule)
        lines.extend(overload)

    # -- filter quality ----------------------------------------------------
    lines.append(rule)
    candidates = sum(entry["value"] for _, entry in _series(summary, "filter.candidates"))
    fp_entry = summary.get("filter.fp_ratio_estimate")
    probe_checked = _value(summary, "filter.probe.checked")
    probe_skipped = _value(summary, "filter.probe.skipped")
    fp_text = f"{fp_entry['value']:.3f}" if fp_entry else "-"
    lines.append(
        f"filter          candidates={candidates:.0f}  fp_ratio~{fp_text}  "
        f"probed={probe_checked:.0f}  probe_skipped={probe_skipped:.0f}"
    )
    pruned: dict[str, float] = {}
    for key, entry in summary.items():
        if ".pruned" in key and entry.get("kind") == "counter":
            dim = (entry.get("labels") or {}).get("dim", "?")
            pruned[dim] = pruned.get(dim, 0.0) + entry["value"]
    if pruned:
        total = sum(pruned.values())
        lines.append(f"pruning power   {total:.0f} pruned; top dimensions:")
        ranked = sorted(pruned.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
        for dim, count in ranked:
            share = count / total if total else 0.0
            bar = "#" * int(share * 30)
            lines.append(f"  {dim[:40]:<40} {count:>8.0f}  {share:>6.1%} {bar}")
    return "\n".join(lines) + "\n"


def run_top(
    poll: Callable[[], Mapping[str, Any]],
    out: TextIO,
    interval: float = 1.0,
    iterations: int | None = None,
    clear: bool = True,
    timeline: Timeline | None = None,
) -> int:
    """Repaint the dashboard from ``poll()`` until interrupted.

    ``iterations`` bounds the frame count (None = run until Ctrl-C);
    ``clear=False`` appends frames instead of clearing (for pipes and
    tests).  Each poll's observability summary is folded into a
    :class:`Timeline` (an internal one unless the caller supplies
    theirs), so percentiles are windowed and the overload panel is
    live.  Returns the number of frames painted.
    """
    frames = 0
    if timeline is None:
        timeline = Timeline()
    try:
        while iterations is None or frames < iterations:
            stats = poll()
            summary = _obs_summary(stats)
            if summary:
                timeline.sample(summary)
            frame = render_dashboard(stats, timeline=timeline)
            if clear:
                out.write(ANSI_CLEAR)
            out.write(frame)
            out.flush()
            frames += 1
            if iterations is not None and frames >= iterations:
                break
            time.sleep(interval)
    except KeyboardInterrupt:
        pass
    return frames
