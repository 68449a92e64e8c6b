"""The metrics timeline: delta encoding, windows, series, sampling.

Everything here runs on hand-built summaries and explicit ``t=``
timestamps — no real clock, no monitor — so the delta-encoding and
window arithmetic are pinned exactly: the baseline sample carries no
deltas, windowed histogram percentiles come from bucket *increments*
(a lifetime spike outside the window cannot skew them), and gauges
carry forward instead of rating.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs import Registry
from repro.obs.timeline import Timeline, TimelineSampler, bucket_quantile


@pytest.fixture(autouse=True)
def clean_obs():
    previous = obs.set_registry(Registry())
    obs.clear_spans()
    was_enabled = obs.enabled()
    obs.enable()
    yield
    obs.set_registry(previous)
    obs.clear_spans()
    if was_enabled:
        obs.enable()
    else:
        obs.disable()


def counter_entry(value: float) -> dict:
    return {"kind": "counter", "help": "", "value": value}


def gauge_entry(value: float) -> dict:
    return {"kind": "gauge", "help": "", "value": value}


def hist_entry(counts: list, total_sum: float, bounds=(0.1, 1.0)) -> dict:
    return {
        "kind": "histogram",
        "help": "",
        "bounds": list(bounds),
        "counts": list(counts),
        "sum": total_sum,
        "count": sum(counts),
    }


# ----------------------------------------------------------------------
# bucket_quantile
# ----------------------------------------------------------------------
class TestBucketQuantile:
    def test_empty_is_none(self):
        assert bucket_quantile([0.1, 1.0], [0, 0, 0], 0.5) is None

    def test_interpolates_within_bucket(self):
        # 10 observations all inside (0.1, 1.0]: median halfway through
        # the bucket mass -> linear interpolation inside its edges.
        value = bucket_quantile([0.1, 1.0], [0, 10, 0], 0.5)
        assert value == pytest.approx(0.1 + 0.9 * 0.5)

    def test_overflow_bucket_reports_last_finite_bound(self):
        assert bucket_quantile([0.1, 1.0], [0, 0, 5], 0.99) == 1.0

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            bucket_quantile([1.0], [1, 0], 1.5)


# ----------------------------------------------------------------------
# delta encoding
# ----------------------------------------------------------------------
class TestDeltaEncoding:
    def test_baseline_has_no_deltas(self):
        timeline = Timeline()
        sample = timeline.sample(
            {"c": counter_entry(10), "g": gauge_entry(3), "h": hist_entry([2, 1, 0], 0.5)},
            t=100.0,
        )
        assert sample.dt == 0.0
        assert sample.counters == {}
        assert sample.histograms == {}
        assert sample.gauges == {"g": 3.0}

    def test_counter_deltas_are_sparse(self):
        timeline = Timeline()
        timeline.sample({"a": counter_entry(5), "b": counter_entry(7)}, t=0.0)
        sample = timeline.sample(
            {"a": counter_entry(9), "b": counter_entry(7)}, t=2.0
        )
        assert sample.dt == 2.0
        assert sample.counters == {"a": 4.0}  # unchanged b costs nothing

    def test_histogram_deltas_are_per_interval(self):
        timeline = Timeline()
        timeline.sample({"h": hist_entry([3, 0, 0], 0.1)}, t=0.0)
        sample = timeline.sample({"h": hist_entry([3, 2, 0], 1.3)}, t=1.0)
        entry = sample.histograms["h"]
        assert entry["counts"] == [0, 2, 0]
        assert entry["count"] == 2
        assert entry["sum"] == pytest.approx(1.2)

    def test_ring_is_bounded(self):
        timeline = Timeline(capacity=3)
        for i in range(10):
            timeline.sample({"c": counter_entry(i)}, t=float(i))
        assert len(timeline) == 3
        assert timeline.sampled == 10

    def test_capacity_below_two_rejected(self):
        with pytest.raises(ValueError):
            Timeline(capacity=1)

    def test_sampling_mints_a_counter(self):
        timeline = Timeline()
        timeline.sample({}, t=0.0)
        timeline.sample({}, t=1.0)
        entry = obs.get_registry().summary()["timeline.samples"]
        assert entry["value"] == 2


# ----------------------------------------------------------------------
# windows
# ----------------------------------------------------------------------
class TestWindow:
    def build(self) -> Timeline:
        timeline = Timeline()
        timeline.sample(
            {"c": counter_entry(0), "g": gauge_entry(1), "h": hist_entry([0, 0, 0], 0.0)},
            t=0.0,
        )
        timeline.sample(
            {"c": counter_entry(6), "g": gauge_entry(4), "h": hist_entry([0, 0, 3], 30.0)},
            t=10.0,
        )
        timeline.sample(
            {"c": counter_entry(10), "g": gauge_entry(2), "h": hist_entry([8, 0, 3], 30.8)},
            t=20.0,
        )
        return timeline

    def test_full_window_delta_and_rate(self):
        window = self.build().window()
        assert window.delta("c") == 10.0
        assert window.duration == 20.0
        assert window.rate("c") == pytest.approx(0.5)

    def test_trailing_window_excludes_old_samples(self):
        # Cutoff at t=15 keeps only the t=20 sample, whose delta covers
        # the (10, 20] interval.
        window = self.build().window(5.0)
        assert window.delta("c") == 4.0
        assert window.rate("c") == pytest.approx(0.4)

    def test_windowed_quantile_ignores_outside_spike(self):
        # The three slow (overflow-bucket) observations land in the first
        # interval; the trailing window only sees the eight fast ones.
        timeline = self.build()
        lifetime = bucket_quantile([0.1, 1.0], [8, 0, 3], 0.95)
        windowed = timeline.window(5.0).quantile("h", 0.95)
        assert windowed == pytest.approx(0.095)
        assert lifetime > windowed

    def test_gauge_reads_latest_in_window(self):
        assert self.build().window().gauge("g") == 2.0

    def test_histogram_delta_counts_via_delta(self):
        assert self.build().window().delta("h") == 11.0

    def test_missing_metric(self):
        window = self.build().window()
        assert window.gauge("nope") is None
        assert window.quantile("nope", 0.5) is None
        assert window.delta("nope") == 0.0

    def test_empty_window_rate_is_none(self):
        timeline = Timeline()
        timeline.sample({"c": counter_entry(1)}, t=0.0)
        assert timeline.window().rate("c") is None  # baseline only: dt 0


class TestLabelAggregation:
    def test_counter_labels_sum(self):
        timeline = Timeline()
        timeline.sample(
            {'c{k="a"}': counter_entry(0), 'c{k="b"}': counter_entry(0)}, t=0.0
        )
        timeline.sample(
            {'c{k="a"}': counter_entry(3), 'c{k="b"}': counter_entry(4)}, t=1.0
        )
        assert timeline.window().delta("c") == 7.0

    def test_prefix_does_not_cross_metric_boundaries(self):
        timeline = Timeline()
        timeline.sample({"cat": counter_entry(0), "c": counter_entry(0)}, t=0.0)
        timeline.sample({"cat": counter_entry(5), "c": counter_entry(1)}, t=1.0)
        assert timeline.window().delta("c") == 1.0

    def test_histogram_label_sets_merge(self):
        timeline = Timeline()
        timeline.sample(
            {
                'h{k="a"}': hist_entry([0, 0, 0], 0.0),
                'h{k="b"}': hist_entry([0, 0, 0], 0.0),
            },
            t=0.0,
        )
        timeline.sample(
            {
                'h{k="a"}': hist_entry([2, 0, 0], 0.1),
                'h{k="b"}': hist_entry([0, 4, 0], 2.0),
            },
            t=1.0,
        )
        merged = timeline.window().histogram("h")
        assert merged["counts"] == [2, 4, 0]
        assert merged["count"] == 6


# ----------------------------------------------------------------------
# series + JSON
# ----------------------------------------------------------------------
class TestSeries:
    def test_counter_series_rates_per_interval(self):
        timeline = Timeline()
        timeline.sample({"c": counter_entry(0)}, t=0.0)
        timeline.sample({"c": counter_entry(4)}, t=2.0)
        timeline.sample({"c": counter_entry(4)}, t=4.0)
        timeline.sample({"c": counter_entry(10)}, t=6.0)
        assert timeline.series("c") == [0.0, 2.0, 0.0, 3.0]

    def test_gauge_series_carries_forward(self):
        timeline = Timeline()
        timeline.sample({"g": gauge_entry(5)}, t=0.0)
        timeline.sample({}, t=1.0)  # gauge absent: carry 5 forward
        timeline.sample({"g": gauge_entry(7)}, t=2.0)
        assert timeline.series("g") == [5.0, 5.0, 7.0]

    def test_points_limit_keeps_newest(self):
        timeline = Timeline()
        for i in range(5):
            timeline.sample({"g": gauge_entry(i)}, t=float(i))
        assert timeline.series("g", points=2) == [3.0, 4.0]

    def test_to_json_is_json_serializable(self):
        timeline = Timeline(capacity=4)
        timeline.sample({"c": counter_entry(0), "g": gauge_entry(1)}, t=0.0)
        timeline.sample({"c": counter_entry(2), "g": gauge_entry(3)}, t=1.0)
        doc = json.loads(json.dumps(timeline.to_json()))
        assert doc["capacity"] == 4
        assert doc["sampled"] == 2
        assert len(doc["samples"]) == 2
        assert doc["samples"][1]["counters"] == {"c": 2.0}


# ----------------------------------------------------------------------
# sampler cadence
# ----------------------------------------------------------------------
class TestTimelineSampler:
    def test_maybe_sample_honours_interval(self):
        timeline = Timeline()
        sampler = TimelineSampler(timeline, lambda: {}, interval=1.0)
        assert sampler.maybe_sample(now=0.0) is not None
        assert sampler.maybe_sample(now=0.5) is None
        assert sampler.maybe_sample(now=0.99) is None
        assert sampler.maybe_sample(now=1.0) is not None
        assert timeline.sampled == 2

    def test_force_resets_cadence(self):
        timeline = Timeline()
        sampler = TimelineSampler(timeline, lambda: {}, interval=1.0)
        sampler.maybe_sample(now=0.0)
        sampler.force(now=0.5)
        assert sampler.maybe_sample(now=1.0) is None  # due moved to 1.5
        assert sampler.maybe_sample(now=1.5) is not None

    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError):
            TimelineSampler(Timeline(), lambda: {}, interval=0.0)
