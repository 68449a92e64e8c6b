"""Evaluation metrics and timing helpers used by every experiment.

The paper's two headline measures:

* **candidate ratio** — reported possible-joinable pairs over the total
  number of (stream, query) pairs ("candidate size" in Figures 2/13/14);
* **average cost per timestamp** — wall-clock milliseconds of filter
  maintenance + answering, averaged over timestamps (Figures 2/15/16/17).

Plus the soundness bookkeeping (false positives / false negatives against
an exact oracle) that the paper's guarantees are stated in.
"""

from __future__ import annotations

import math
import time
from typing import Hashable, Iterable, NamedTuple


def candidate_ratio(num_candidates: int, num_streams: int, num_queries: int) -> float:
    """Candidates over total pairs, in [0, 1]."""
    total = num_streams * num_queries
    if total == 0:
        return 0.0
    return num_candidates / total


class Confusion(NamedTuple):
    """Filter output vs exact truth over the same pair universe."""

    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        reported = self.true_positives + self.false_positives
        return self.true_positives / reported if reported else 1.0

    @property
    def sound(self) -> bool:
        """The paper's hard requirement: not a single false negative."""
        return self.false_negatives == 0


def compare_with_truth(
    reported: Iterable[Hashable], truth: Iterable[Hashable]
) -> Confusion:
    """Confusion counts of a reported candidate set against the truth."""
    reported_set = set(reported)
    truth_set = set(truth)
    return Confusion(
        true_positives=len(reported_set & truth_set),
        false_positives=len(reported_set - truth_set),
        false_negatives=len(truth_set - reported_set),
    )


class RunningStats:
    """Streaming mean/min/max/stdev accumulator (Welford)."""

    __slots__ = ("count", "mean", "_m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        """Fold one observation into the accumulator."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def summary(self) -> dict[str, float]:
        """Plain-dict snapshot (count/mean/stdev/min/max)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "stdev": self.stdev,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
        }


class Stopwatch:
    """Accumulating wall-clock timer; times are in seconds."""

    __slots__ = ("total", "laps", "_started")

    def __init__(self) -> None:
        self.total = 0.0
        self.laps = RunningStats()
        self._started: float | None = None

    def start(self) -> None:
        """Begin a lap; error if one is already running."""
        if self._started is not None:
            raise RuntimeError("stopwatch is already running")
        self._started = time.perf_counter()

    def stop(self) -> float:
        """End the lap, accumulate it, and return its duration."""
        if self._started is None:
            raise RuntimeError("stopwatch is not running")
        lap = time.perf_counter() - self._started
        self._started = None
        self.total += lap
        self.laps.add(lap)
        return lap

    def __enter__(self) -> "Stopwatch":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def mean_ms(self) -> float:
        """Average lap in milliseconds (the paper's per-timestamp unit)."""
        return self.laps.mean * 1000.0
