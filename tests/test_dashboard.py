"""The ``repro top`` dashboard: quantile math, frame rendering from
every stats shape (bare summary, local monitor, sharded ``merged_obs``),
and the repaint loop."""

from __future__ import annotations

import io
import random

import pytest

from repro import obs
from repro.dashboard import (
    ANSI_CLEAR,
    histogram_quantile,
    render_dashboard,
    run_top,
)
from repro.obs import Registry
from repro.obs.timeline import Timeline

from .conftest import random_labeled_graph


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


HIST = {
    "kind": "histogram",
    "help": "",
    "bounds": [0.001, 0.01, 0.1],
    "counts": [2, 6, 2, 0],
    "sum": 0.06,
    "count": 10,
}


class TestHistogramQuantile:
    def test_empty_histogram_is_none(self):
        empty = {"kind": "histogram", "bounds": [1.0], "counts": [0, 0], "count": 0}
        assert histogram_quantile(empty, 0.5) is None

    def test_interpolates_inside_the_crossing_bucket(self):
        # p50: target 5 of 10; 2 land below 1ms, crossing the second
        # bucket (1ms..10ms) at (5-2)/6 of its width.
        assert histogram_quantile(HIST, 0.5) == pytest.approx(
            0.001 + (0.01 - 0.001) * 3 / 6
        )

    def test_low_quantile_lands_in_first_bucket(self):
        assert histogram_quantile(HIST, 0.1) == pytest.approx(0.001 * 1 / 2)

    def test_overflow_bucket_reports_last_bound(self):
        tail = {"kind": "histogram", "bounds": [0.001], "counts": [0, 4], "count": 4}
        assert histogram_quantile(tail, 0.99) == 0.001

    def test_quantile_range_validated(self):
        with pytest.raises(ValueError):
            histogram_quantile(HIST, 1.5)


def synthetic_stats() -> dict:
    return {
        "num_streams": 2,
        "num_queries": 3,
        "method": "nl",
        "inbox_depths": {0: 1, 1: 0},
        "backpressure": {"queue_capacity": 128, "accepted_batches": 12},
        "obs": {
            "monitor.apply.seconds": dict(HIST),
            "monitor.polls": {"kind": "counter", "help": "", "value": 4},
            "monitor.changes": {"kind": "counter", "help": "", "value": 20},
            "monitor.events": {"kind": "counter", "help": "", "value": 3},
            'filter.candidates{query="q0",stream="s0"}': {
                "kind": "counter",
                "help": "",
                "value": 5,
                "labels": {"query": "q0", "stream": "s0"},
            },
            "filter.fp_ratio_estimate": {"kind": "gauge", "help": "", "value": 0.25},
            "filter.probe.checked": {"kind": "counter", "help": "", "value": 8},
            "filter.probe.skipped": {"kind": "counter", "help": "", "value": 2},
            'join.nl.pruned{dim="(1, \'A\', \'B\')"}': {
                "kind": "counter",
                "help": "",
                "value": 6,
                "labels": {"dim": "(1, 'A', 'B')"},
            },
            'join.nl.pruned{dim="combination"}': {
                "kind": "counter",
                "help": "",
                "value": 2,
                "labels": {"dim": "combination"},
            },
        },
    }


class TestRenderDashboard:
    def test_frame_shows_every_section(self):
        frame = render_dashboard(synthetic_stats())
        assert "streams=2  queries=3" in frame
        assert "engine=nl" in frame
        assert "p50=" in frame and "p90=" in frame and "p99=" in frame
        assert "changes=20  polls=4  events=3" in frame
        assert "shard0=1  shard1=0" in frame
        assert "capacity=128  accepted=12" in frame
        assert "candidates=5" in frame
        assert "fp_ratio~0.250" in frame
        assert "probed=8" in frame and "probe_skipped=2" in frame
        assert "8 pruned" in frame
        assert "(1, 'A', 'B')" in frame and "combination" in frame

    def test_shm_and_rescale_panels(self):
        stats = synthetic_stats()
        stats["shm"] = {"rings": 2, "ring_capacity": 4096}
        stats["rescale"] = {"count": 3, "last_seconds": 0.25}
        stats["obs"]["shm.ring_overflow"] = {"kind": "counter", "help": "", "value": 1}
        stats["obs"]["runtime.bytes_pickled"] = {
            "kind": "counter",
            "help": "",
            "value": 1234,
        }
        frame = render_dashboard(stats)
        assert "shm rings       rings=2  ring_overflows=1  queue_bytes=1234" in frame
        assert "rescale         count=3" in frame

    def test_shm_panels_absent_for_non_shm_runs(self):
        frame = render_dashboard(synthetic_stats())
        assert "shm rings" not in frame
        assert "rescale " not in frame

    def test_serve_panels(self):
        stats = synthetic_stats()
        stats["serve"] = {
            "timestamp": 7,
            "accepted_batches": 40,
            "dead_letters": 2,
            "sessions": 3,
            "queue_depth": 5,
            "admitted": 50,
            "rejected_queue": 4,
            "rejected_draining": 3,
        }
        stats["obs"]["serve.commit.seconds"] = dict(HIST)
        frame = render_dashboard(stats)
        assert "serve           sessions=3  queue=5  t=7" in frame
        assert "admitted=50  rejected=7  refused=2  batches=40" in frame
        assert "commit latency  p50=" in frame

    def test_serve_panel_absent_without_server(self):
        frame = render_dashboard(synthetic_stats())
        assert "serve " not in frame
        assert "admission" not in frame

    def test_frame_degrades_without_observability(self):
        frame = render_dashboard({"num_streams": 1, "num_queries": 1})
        assert "streams=1" in frame
        assert "fp_ratio~-" in frame  # no estimate yet

    def test_bare_summary_is_accepted(self):
        frame = render_dashboard(synthetic_stats()["obs"])
        assert "p50=" in frame and "candidates=5" in frame

    def test_live_monitor_stats_render(self):
        from repro.core.monitor import StreamMonitor
        from repro.datasets.stream_gen import synthesize_stream

        rng = random.Random(9)
        queries = {
            f"q{i}": random_labeled_graph(rng, 3, extra_edges=1) for i in range(2)
        }
        monitor = StreamMonitor(queries, method="dsc")
        base = random_labeled_graph(rng, 6, extra_edges=2)
        stream = synthesize_stream(base, 0.3, 0.2, 4, rng, all_pairs=True, name="s0")
        monitor.add_stream("s0", stream.initial)
        for ops in stream.operations:
            monitor.apply("s0", ops)
            monitor.matches()
        stats = dict(monitor.stats())
        stats["obs"] = obs.get_registry().summary()
        frame = render_dashboard(stats)
        assert "apply latency" in frame and "(n=" in frame
        assert "pruning power" in frame


class TestWindowedPercentiles:
    def timeline_with_burst(self) -> "Timeline":
        """Two samples: the baseline carries the lifetime HIST counts,
        the second adds ten fast (<1ms) observations — so the windowed
        view shows the burst, not the lifetime mix."""
        timeline = Timeline()
        first = dict(HIST)
        timeline.sample({"monitor.apply.seconds": first}, t=0.0)
        second = dict(HIST)
        second["counts"] = [12, 6, 2, 0]
        second["count"] = 20
        second["sum"] = 0.065
        timeline.sample({"monitor.apply.seconds": second}, t=1.0)
        return timeline

    def test_without_timeline_percentiles_are_lifetime(self):
        frame = render_dashboard(synthetic_stats())
        assert "(n=10, lifetime)" in frame

    def test_with_timeline_percentiles_use_window_deltas(self):
        frame = render_dashboard(
            synthetic_stats(), timeline=self.timeline_with_burst()
        )
        # Only the ten-fast-observation delta is in the window: n=10,
        # scope "window", and every percentile sits in the sub-1ms
        # bucket even though the lifetime histogram crosses 10ms.
        assert "(n=10, window)" in frame
        assert "(n=10, lifetime)" not in frame
        apply_line = next(
            line for line in frame.splitlines() if "apply latency" in line
        )
        assert "ms" not in apply_line  # all three percentiles render in us

    def test_idle_window_falls_back_to_lifetime(self):
        timeline = Timeline()
        timeline.sample({"monitor.apply.seconds": dict(HIST)}, t=0.0)
        timeline.sample({"monitor.apply.seconds": dict(HIST)}, t=1.0)
        frame = render_dashboard(synthetic_stats(), timeline=timeline)
        assert "(n=10, lifetime)" in frame


class TestOverloadPanel:
    def overload_timeline(self) -> "Timeline":
        timeline = Timeline()

        def summary(admitted, rejected):
            return {
                "serve.admitted": {"kind": "counter", "help": "", "value": admitted},
                "serve.rejected": {"kind": "counter", "help": "", "value": rejected},
            }

        timeline.sample(summary(0, 0), t=0.0)
        timeline.sample(summary(10, 0), t=1.0)
        timeline.sample(summary(12, 30), t=2.0)
        timeline.sample(summary(12, 31), t=3.0)
        return timeline

    def test_panel_shows_sparklines_and_breaker_transitions(self):
        frame = render_dashboard(synthetic_stats(), timeline=self.overload_timeline())
        assert "overload timeline" in frame
        lines = {
            line.split("[")[0].strip(): line
            for line in frame.splitlines()
            if "[" in line
        }
        assert "peak=10.0/s" in lines["admitted"]
        assert "peak=30.0/s" in lines["rejected"]
        # One bounded queue: no breaker strip and no shed row.
        assert set(lines) == {"admitted", "rejected"}

    def test_panel_absent_without_timeline_or_traffic(self):
        assert "overload timeline" not in render_dashboard(synthetic_stats())
        idle = Timeline()
        idle.sample({}, t=0.0)
        idle.sample({}, t=1.0)
        frame = render_dashboard(synthetic_stats(), timeline=idle)
        assert "overload timeline" not in frame


class TestRunTop:
    def test_paints_the_requested_frames_without_clearing(self):
        out = io.StringIO()
        frames = run_top(
            lambda: synthetic_stats(), out, interval=0.0, iterations=3, clear=False
        )
        assert frames == 3
        text = out.getvalue()
        assert text.count("repro top") == 3
        assert ANSI_CLEAR not in text

    def test_clear_mode_prefixes_each_frame(self):
        out = io.StringIO()
        run_top(lambda: synthetic_stats(), out, interval=0.0, iterations=2, clear=True)
        assert out.getvalue().count(ANSI_CLEAR) == 2

    def test_keyboard_interrupt_ends_the_loop_cleanly(self):
        out = io.StringIO()
        polls = {"n": 0}

        def poll():
            if polls["n"] >= 1:
                raise KeyboardInterrupt
            polls["n"] += 1
            return synthetic_stats()

        assert run_top(poll, out, interval=0.0, iterations=None, clear=False) == 1


class TestTopCli:
    def test_replay_mode_paints_and_exits(self, tmp_path, capsys):
        from repro.cli import main
        from repro.datasets.stream_gen import synthesize_stream
        from repro.graph.io import write_graph_set, write_stream

        rng = random.Random(13)
        queries = {
            f"q{i}": random_labeled_graph(rng, 3, extra_edges=1) for i in range(2)
        }
        qpath = tmp_path / "queries.txt"
        write_graph_set(list(queries.values()), qpath, names=list(queries))
        spaths = []
        for i in range(2):
            base = random_labeled_graph(rng, 6, extra_edges=2)
            stream = synthesize_stream(
                base, 0.3, 0.2, 3, rng, all_pairs=True, name=f"s{i}"
            )
            path = tmp_path / f"s{i}.txt"
            write_stream(stream, path)
            spaths.append(str(path))
        code = main(
            ["top", "--queries", str(qpath), "--streams", *spaths,
             "--iterations", "2", "--interval", "0", "--no-clear"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("repro top") == 2
        assert "apply latency" in out
