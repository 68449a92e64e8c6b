"""The untraced measurement: set up, drive the closed loop, verify.

Shared by the single-run command (``run.py``), the traced run
(``layers.py``) and the suite (``__main__.py``).  Every end-to-end
metric is defined once, in :func:`end_to_end_metrics`, and reported raw:
nothing is scaled by a host-speed reference.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterable, Sequence

from . import loadgen, oracle
from .depths import DEPTHS, Depth, child_env, segment_census, sweep_leaked
from .measure import (
    NULL_TRACER,
    Tracer,
    calibrate,
    cpu_seconds,
    peak_rss_mb,
    percentile,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS_DIR = HERE / "results"
#: ``setup_s`` is the median over fresh children, one set-up each: at
#: least MIN, and cheap ones are repeated up to MAX while the children
#: together have taken less than SETUP_BUDGET_S of wall-clock.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 7, 4.0


def contract() -> dict:
    """``BENCHMARK.json``: the metric names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def answer_digest(answer: set) -> str:
    return hashlib.blake2b(repr(sorted(answer)).encode(), digest_size=8).hexdigest()


class Recording:
    """Per-tick observations of one system over a script."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.digests: list[str] = []
        self.sets: dict[str, frozenset] = {}
        self.changes = 0
        self.pairs = 0

    def add(self, latency: float, changes: int, answer: set) -> None:
        digest = answer_digest(answer)
        self.latencies.append(latency)
        self.digests.append(digest)
        if digest not in self.sets:
            self.sets[digest] = frozenset(answer)
        self.changes += changes
        self.pairs += len(answer)

    def answers_at(self, ticks: list[int]) -> dict[int, frozenset]:
        return {t: self.sets[self.digests[t]] for t in ticks}


def drive(
    depth: Depth,
    ticks: Iterable[loadgen.Tick],
    recording: Recording,
    deadline: float = math.inf,
    tracer: Tracer = NULL_TRACER,
) -> None:
    """Closed loop: send a tick, wait for its answer, repeat — until the
    ticks or the clock (``deadline``, a ``perf_counter`` reading) run out."""
    for tick in ticks:
        start = time.perf_counter()
        if start >= deadline:
            break
        with tracer.span("tick"):
            answer = depth.tick(tick)
        recording.add(time.perf_counter() - start, tick.changes, answer)


def candidate_ratio(script: loadgen.Script, recording: Recording) -> float:
    """Reported pairs ÷ (streams × queries × ticks) — the paper's Fig 14."""
    slots = 0
    live = len(script.queries)
    for tick in script.ticks[: len(recording.digests)]:
        live += sum(1 if item[0] == "addq" else -1 for item in tick.churn)
        slots += live * len(script.initial)
    return recording.pairs / slots if slots else 0.0


def end_to_end_metrics(
    spec: loadgen.Workload,
    latencies: Sequence[float],
    changes: int,
    cpu_s: float,
    setups: Sequence[float] = (),
    rss_mb: Sequence[float] = (),
) -> dict[str, tuple[float, str]]:
    """The one definition of every end-to-end timing and size metric,
    over one run's ticks or over the ticks pooled across repetitions.
    ``setup_s`` / ``peak_rss_mb`` are left out where the caller has no
    samples of them (the traced run)."""
    metrics = {
        "changes_per_s": (changes / sum(latencies), "1/s"),
        "tick_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "tick_tail_ms": (percentile(latencies, spec.tail_pct) * 1e3, "ms"),
        "cpu_ms_per_change": (cpu_s * 1e3 / changes, "ms"),
    }
    if setups:
        metrics["setup_s"] = (statistics.median(setups), "s")
    if rss_mb:
        metrics["peak_rss_mb"] = (statistics.median(rss_mb), "MB")
    return metrics


def fresh_setups(script: loadgen.Script, workdir: Path) -> tuple[list[float], int]:
    """``setup_s`` samples, each from its own fresh child process
    (``setup_probe.py``): interpreter start and program import included,
    warm imports and a warm allocator excluded.  Returns the samples and
    the number of failures the children reported."""
    command = [
        sys.executable, "-m", "benchmarks.e2e.setup_probe",
        "--workload", script.workload.name, "--seed", str(script.seed),
        "--workdir", str(workdir),
    ] + (["--smoke"] if script.sizes != script.workload.sizes else [])
    samples: list[float] = []
    failed = 0
    began = time.perf_counter()
    while len(samples) < MIN_SETUPS or (
        len(samples) < MAX_SETUPS and time.perf_counter() - began < SETUP_BUDGET_S
    ):
        done = subprocess.run(
            command + ["--spawned-at", repr(time.perf_counter())],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=170, check=True,
        )
        report = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append(report["setup_s"])
        failed += report["failed"]
    return samples, failed


def measure_end_to_end(script: loadgen.Script, seconds: float, workdir: Path) -> dict:
    """Set up (in fresh children), drive for ``seconds``, tear down, verify."""
    spec = script.workload
    calib = [calibrate()]
    setups, failed = fresh_setups(script, workdir)

    segments = segment_census()
    depth = DEPTHS[spec.depth](script, workdir)
    depth.start()
    pids = depth.pids()
    cpu_before = cpu_seconds(pids)
    recording = Recording()
    drive(depth, script.ticks, recording, deadline=time.perf_counter() + seconds)
    cpu = cpu_seconds(pids) - cpu_before
    rss = peak_rss_mb(pids)
    failed += depth.failed + depth.close() + sweep_leaked(segments)
    calib.append(calibrate())

    reached = len(recording.digests)
    if not reached:
        raise RuntimeError("no tick completed inside the measurement window")
    verdict = oracle.check(
        script, recording.answers_at(oracle.sample_ticks(reached)), full=False
    )
    failed += verdict["missed"]
    metrics = end_to_end_metrics(
        spec, recording.latencies, recording.changes, cpu, setups, [rss]
    )
    metrics["candidate_ratio"] = (candidate_ratio(script, recording), "ratio")
    metrics["failed_share"] = (failed / max(depth.attempted, 1), "ratio")
    return {
        "workload": spec.name,
        "depth": spec.depth,
        "seed": script.seed,
        "script_digest": script.digest(),
        "ticks": reached,
        "changes": recording.changes,
        "cpu_s": cpu,
        "latencies": recording.latencies,
        "digests": recording.digests,
        "setups": setups,
        "calib_ms": calib,
        "recall": verdict["recall"],
        "attempted": depth.attempted,
        "failed": failed,
        "obs_enabled": os.environ.get("REPRO_OBS", "default(on)"),
        "metrics": metrics,
    }
