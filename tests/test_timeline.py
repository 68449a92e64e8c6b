"""The metrics timeline: delta encoding, windows, series, resets.

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
from repro.obs.timeline import Timeline, bucket_quantile


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
# resets: a merged summary that goes backwards
# ----------------------------------------------------------------------
class TestResets:
    """A respawned worker's registry restarts from zero and a retired
    one drops out of the merge; a decrease is a reset, never a negative
    delta."""

    def test_counter_decrease_counts_the_current_value(self):
        timeline = Timeline()
        timeline.sample({"c": counter_entry(10)}, t=0.0)
        timeline.sample({"c": counter_entry(15)}, t=1.0)
        sample = timeline.sample({"c": counter_entry(3)}, t=2.0)
        assert sample.counters == {"c": 3.0}
        assert timeline.window(0.5).rate("c") == pytest.approx(3.0)

    def test_counter_reset_to_zero_stores_nothing(self):
        timeline = Timeline()
        timeline.sample({"c": counter_entry(4)}, t=0.0)
        assert timeline.sample({"c": counter_entry(0)}, t=1.0).counters == {}

    def test_histogram_count_decrease_takes_the_current_buckets(self):
        timeline = Timeline()
        timeline.sample({"h": hist_entry([5, 5, 0], 3.0)}, t=0.0)
        entry = timeline.sample({"h": hist_entry([1, 1, 0], 0.6)}, t=1.0).histograms["h"]
        assert entry["counts"] == [1, 1, 0]
        assert entry["count"] == 2
        assert entry["sum"] == pytest.approx(0.6)

    def test_histogram_bucket_decrease_is_a_reset_too(self):
        # One worker reset while another grew: the total still rose.
        timeline = Timeline()
        timeline.sample({"h": hist_entry([4, 0, 0], 0.2)}, t=0.0)
        entry = timeline.sample({"h": hist_entry([1, 6, 0], 3.1)}, t=1.0).histograms["h"]
        assert entry["counts"] == [1, 6, 0]
        assert entry["count"] == 7

    def test_windowed_quantile_after_a_reset_reads_the_new_buckets(self):
        timeline = Timeline()
        bounds = (0.001, 0.01)
        timeline.sample({"h": hist_entry([0, 10, 0], 0.05, bounds)}, t=0.0)
        timeline.sample({"h": hist_entry([0, 4, 0], 0.02, bounds)}, t=1.0)
        p95 = timeline.window(0.5).quantile("h", 0.95)
        assert 0.001 < p95 <= 0.01

    def test_sharded_rescale_leaves_no_negative_delta(self):
        import random

        from repro.datasets.ggen import generate_graph_set
        from repro.datasets.queries import make_query_set
        from repro.datasets.stream_gen import DENSE, synthesize_stream
        from repro.runtime import ShardedMonitor

        rng = random.Random(7)
        bases = generate_graph_set(6, graph_size=12.0, num_vertex_labels=3, seed=7)
        queries = {
            f"q{i}": query for i, query in enumerate(make_query_set(bases, 3, 3, seed=8))
        }
        streams = {
            f"s{i}": synthesize_stream(base, *DENSE, 6, rng, all_pairs=True, name=f"s{i}")
            for i, base in enumerate(bases)
        }
        timeline = Timeline()
        with ShardedMonitor(queries, num_workers=2) as monitor:
            for stream_id, stream in streams.items():
                monitor.add_stream(stream_id, stream.initial)
            for t in range(5):
                for stream_id, stream in streams.items():
                    monitor.apply(stream_id, stream.operations[t])
                monitor.matches()
            timeline.sample(monitor.obs_summary(), t=0.0)
            timeline.sample(monitor.obs_summary(), t=1.0)
            monitor.rescale(1)
            sample = timeline.sample(monitor.obs_summary(), t=2.0)
        assert all(delta > 0 for delta in sample.counters.values())
        for entry in sample.histograms.values():
            assert entry["count"] > 0
            assert min(entry["counts"]) >= 0
