"""Tests for metrics and timing helpers."""

import math
import time

import pytest

from repro.core.metrics import (
    Confusion,
    RunningStats,
    Stopwatch,
    candidate_ratio,
    compare_with_truth,
)


class TestCandidateRatio:
    def test_basic(self):
        assert candidate_ratio(5, 10, 10) == 0.05

    def test_empty_universe(self):
        assert candidate_ratio(0, 0, 10) == 0.0


class TestConfusion:
    def test_compare_with_truth(self):
        confusion = compare_with_truth(reported={1, 2, 3}, truth={2, 3, 4})
        assert confusion.true_positives == 2
        assert confusion.false_positives == 1
        assert confusion.false_negatives == 1
        assert not confusion.sound

    def test_sound_filter(self):
        confusion = compare_with_truth(reported={1, 2, 3}, truth={2})
        assert confusion.sound
        assert confusion.precision == pytest.approx(1 / 3)

    def test_precision_with_no_reports(self):
        assert compare_with_truth(set(), set()).precision == 1.0

    def test_perfect(self):
        confusion = compare_with_truth({1}, {1})
        assert confusion == Confusion(1, 0, 0)
        assert confusion.precision == 1.0


class TestRunningStats:
    def test_mean_and_extremes(self):
        stats = RunningStats()
        for value in (1.0, 2.0, 3.0):
            stats.add(value)
        assert stats.count == 3
        assert stats.mean == pytest.approx(2.0)
        assert stats.minimum == 1.0
        assert stats.maximum == 3.0
        assert stats.variance == pytest.approx(1.0)
        assert stats.stdev == pytest.approx(1.0)

    def test_single_value_no_variance(self):
        stats = RunningStats()
        stats.add(5.0)
        assert stats.variance == 0.0

    def test_summary_keys(self):
        stats = RunningStats()
        stats.add(1.0)
        summary = stats.summary()
        assert set(summary) == {"count", "mean", "stdev", "min", "max"}

    def test_empty_summary(self):
        summary = RunningStats().summary()
        assert summary["count"] == 0
        assert summary["min"] == 0.0


class TestStopwatch:
    def test_accumulates(self):
        watch = Stopwatch()
        with watch:
            time.sleep(0.01)
        with watch:
            time.sleep(0.01)
        assert watch.total >= 0.02
        assert watch.laps.count == 2
        assert watch.mean_ms >= 10.0

    def test_double_start_rejected(self):
        watch = Stopwatch()
        watch.start()
        with pytest.raises(RuntimeError):
            watch.start()
        watch.stop()

    def test_stop_without_start_rejected(self):
        with pytest.raises(RuntimeError):
            Stopwatch().stop()

    def test_stop_returns_lap(self):
        watch = Stopwatch()
        watch.start()
        lap = watch.stop()
        assert lap >= 0.0
        assert math.isclose(lap, watch.total)
