"""The precision probe: a live estimate of the filter's false-positive
ratio on top of a :class:`StreamMonitor`.

:class:`PrecisionProbe` runs exact VF2 on a rate-sampled, time-budgeted
fraction of the emitted candidate pairs — strictly off the filtering
path, the filter's output is never altered — and feeds the cumulative
false-positive tallies to :func:`repro.obs.quality.record_probe`, which
keeps the live ``filter.fp_ratio_estimate`` gauge.  It keeps one
matcher per stream, keyed on the stream's *mutation version* (derived
from the NNT index's churn counters), so a quiet stream's matcher is not
rebuilt between passes.  Deadline arithmetic lives in
:class:`repro.obs.quality.ProbeBudget` because clock reads stay out of
this package (``tests/fitness/test_invariants.py``).
"""

from __future__ import annotations

import random
from typing import Any, Iterable

from .. import obs
from ..isomorphism.vf2 import SubgraphMatcher
from ..join.base import Pair, StreamId
from .monitor import StreamMonitor


class PrecisionProbe:
    """Budgeted sampled estimate of the filter's false-positive ratio.

    The paper measures filter quality offline (Figs 13-14) as::

        FP ratio = candidates failing exact isomorphism / candidates

    This probe estimates the same ratio *while serving*: each
    :meth:`sample` pass walks the candidate pairs in deterministic
    order, verifies an unbiased ``rate`` fraction of them with exact
    VF2 (a seeded :class:`random.Random`, so runs are reproducible),
    and stops consuming CPU once the wall-clock budget of its
    :class:`~repro.obs.quality.ProbeBudget` expires — every pair not
    verified is *skipped and counted*, never guessed.

    Soundness: the probe only ever reads — ``matches()`` output, the
    stream graph, the query set — and publishes to observability
    instruments.  It cannot change what the filter emits, so enabling
    it affects latency only by the budget it is given, and disabling
    it (``rate=0`` or not constructing one) is behaviourally invisible.

    At ``rate=1.0`` with no time budget every emitted candidate is
    verified, and :attr:`fp_ratio_estimate` equals the offline ratio
    exactly; at lower rates it is a Bernoulli-sampled estimate whose
    standard error is ``sqrt(p * (1-p) / checked)``.
    """

    def __init__(
        self,
        monitor: StreamMonitor,
        rate: float = 0.1,
        budget_seconds: float | None = 0.050,
        seed: int = 0,
    ) -> None:
        self.monitor = monitor
        self.budget = obs.quality.ProbeBudget(rate, budget_seconds)
        self._rng = random.Random(seed)
        #: Cumulative tallies across every :meth:`sample` pass.
        self.stats: dict[str, int] = {"checked": 0, "false_positives": 0, "skipped": 0}
        self._matchers: dict[StreamId, tuple[int, SubgraphMatcher]] = {}

    def _matcher(self, stream_id: StreamId) -> SubgraphMatcher:
        """``stream_id``'s matcher, rebuilt only when the stream's
        mutation version moved since it was built."""
        version = self.monitor.mutation_version(stream_id)
        cached = self._matchers.get(stream_id)
        if cached is not None and cached[0] == version:
            return cached[1]
        matcher = SubgraphMatcher(self.monitor.graph(stream_id))
        self._matchers[stream_id] = (version, matcher)
        return matcher

    def sample(self, candidates: Iterable[Pair] | None = None) -> dict[str, Any]:
        """Run one probe pass; returns this pass's tallies.

        ``candidates`` defaults to a fresh ``matches()`` poll.  The
        pass visits pairs in sorted order (determinism), rate-samples
        each one, and honours the time budget between verifications.
        """
        if candidates is None:
            candidates = self.monitor.matches()
        ordered = sorted(candidates, key=str)
        checked = false_positives = skipped = 0
        self.budget.start()
        with obs.span("monitor.probe", pairs=len(ordered)):
            for stream_id, query_id in ordered:
                if self._rng.random() >= self.budget.rate:
                    skipped += 1
                    continue
                if self.budget.expired():
                    skipped += 1
                    continue
                matcher = self._matcher(stream_id)
                checked += 1
                if not matcher.is_subgraph(self.monitor.query_set.queries[query_id]):
                    false_positives += 1
        self.stats["checked"] += checked
        self.stats["false_positives"] += false_positives
        self.stats["skipped"] += skipped
        obs.quality.record_probe(checked, false_positives, skipped)
        return {
            "checked": checked,
            "false_positives": false_positives,
            "skipped": skipped,
            "fp_ratio": false_positives / checked if checked else None,
        }

    @property
    def fp_ratio_estimate(self) -> float | None:
        """Cumulative FP-ratio estimate (None before any verification)."""
        if not self.stats["checked"]:
            return None
        return self.stats["false_positives"] / self.stats["checked"]
