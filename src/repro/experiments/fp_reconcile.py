"""Reconciling the live precision probe against the offline FP ratio.

The paper measures filter quality offline (Figures 13-14) as the share
of emitted candidate pairs that fail exact subgraph isomorphism::

    FP ratio = (candidates - verified matches) / candidates

:class:`repro.core.verify.PrecisionProbe` estimates the same quantity
*while serving*, from a rate-sampled, time-budgeted subset.  This
module replays one workload both ways so tests (and operators tuning
``--probe-rate``) can check the two numbers agree:

* :func:`offline_fp_ratio` — the figure-style exact measurement: every
  timestamp, verify the full candidate set.
* :func:`probed_fp_ratio` — the same replay, measured only through a
  probe sampling after every timestamp.
* :func:`reconcile` — both at once, plus the Bernoulli confidence bound
  ``z * sqrt(p * (1-p) / checked)``.  At ``rate=1.0`` with no time
  budget the probe verifies every emitted pair, so the estimate equals
  the offline ratio exactly and the bound is redundant; at lower rates
  the bound says how far apart the two may legitimately drift.

Both replays run on fresh monitors, so neither measurement can perturb
the other's timings or caches.
"""

from __future__ import annotations

from math import sqrt
from typing import Any

from ..core.monitor import StreamMonitor
from ..core.verify import PrecisionProbe
from .harness import replay
from .workloads import StreamWorkload


def offline_fp_ratio(workload: StreamWorkload, method: str = "dsc") -> dict[str, Any]:
    """The offline (Figures 13-14 style) false-positive ratio: every
    timestamp's full candidate set verified with exact VF2."""
    monitor = StreamMonitor(workload.queries, method=method)
    false_positives = 0

    def verify(emitted: set) -> None:
        nonlocal false_positives
        false_positives += len(emitted) - len(monitor.verified_matches(emitted))

    run = replay(workload, monitor, method, on_poll=verify)
    candidates = sum(run.candidates_per_timestamp)
    return {
        "method": method,
        "workload": workload.name,
        "timestamps": run.timestamps,
        "candidates": candidates,
        "false_positives": false_positives,
        "fp_ratio": false_positives / candidates if candidates else 0.0,
    }


def probed_fp_ratio(
    workload: StreamWorkload,
    method: str = "dsc",
    rate: float = 1.0,
    budget_seconds: float | None = None,
    seed: int = 0,
) -> dict[str, Any]:
    """The live-probe estimate of the same ratio over the same replay:
    one :meth:`~repro.core.verify.PrecisionProbe.sample` pass over each
    timestamp's polled pairs, nothing else verified."""
    monitor = StreamMonitor(workload.queries, method=method)
    probe = PrecisionProbe(
        monitor, rate=rate, budget_seconds=budget_seconds, seed=seed
    )
    timestamps = replay(workload, monitor, method, on_poll=probe.sample).timestamps
    checked = probe.stats["checked"]
    estimate = probe.fp_ratio_estimate
    stderr = (
        sqrt(estimate * (1.0 - estimate) / checked)
        if checked and estimate is not None
        else None
    )
    return {
        "method": method,
        "workload": workload.name,
        "timestamps": timestamps,
        "rate": rate,
        "budget_seconds": budget_seconds,
        "checked": checked,
        "skipped": probe.stats["skipped"],
        "false_positives": probe.stats["false_positives"],
        "fp_ratio_estimate": estimate,
        "stderr": stderr,
    }


def reconcile(
    workload: StreamWorkload,
    method: str = "dsc",
    rate: float = 1.0,
    budget_seconds: float | None = None,
    seed: int = 0,
    z: float = 3.0,
) -> dict[str, Any]:
    """Run both measurements and compare them.

    Returns the two result dicts plus ``bound`` (``z`` standard errors
    of the sampled estimate) and ``agrees`` — whether the offline ratio
    lies within that bound of the estimate.  With ``rate=1.0`` and no
    budget the difference must be exactly zero.
    """
    offline = offline_fp_ratio(workload, method)
    probed = probed_fp_ratio(workload, method, rate, budget_seconds, seed)
    estimate = probed["fp_ratio_estimate"]
    if estimate is None:
        return {"offline": offline, "probed": probed, "bound": None, "agrees": False}
    bound = z * (probed["stderr"] or 0.0)
    difference = abs(offline["fp_ratio"] - estimate)
    return {
        "offline": offline,
        "probed": probed,
        "bound": bound,
        "difference": difference,
        "agrees": difference <= bound + 1e-12,
    }
