"""Trace identity and export: id minting, span-tree nesting, envelope
propagation across the process boundary, Chrome/Perfetto export, and
the recovery contract (journal-replayed commands open fresh traces —
no orphan parent ids).

The cross-process tests drive a real 2-worker :class:`ShardedMonitor`
and assert the PR's core acceptance property: every worker-side
``monitor.apply`` span reaches a coordinator-side ancestor by following
``parent_id`` links through the collected record set.
"""

from __future__ import annotations

import json
import os
import random
import signal
import time

import pytest

from repro import obs
from repro.obs import Registry, TraceContext
from repro.obs import trace as trace_mod

from .conftest import random_labeled_graph


@pytest.fixture(autouse=True)
def clean_obs():
    """Fresh registry, empty span ring, no open frames or attachments."""
    previous = obs.set_registry(Registry())
    obs.clear_spans()
    trace_mod.reset()
    previous_label = trace_mod._process_label
    was_enabled = obs.enabled()
    obs.enable()
    yield
    obs.set_registry(previous)
    obs.clear_spans()
    trace_mod.reset()
    trace_mod._process_label = previous_label
    if was_enabled:
        obs.enable()
    else:
        obs.disable()


def small_workload(seed: int, streams: int = 3, timestamps: int = 4):
    from repro.datasets.stream_gen import synthesize_stream

    rng = random.Random(seed)
    queries = {
        f"q{i}": random_labeled_graph(rng, rng.randint(2, 4), extra_edges=1)
        for i in range(3)
    }
    stream_map = {}
    for i in range(streams):
        base = random_labeled_graph(rng, rng.randint(4, 7), extra_edges=2)
        stream_map[f"s{i}"] = synthesize_stream(
            base, 0.3, 0.2, timestamps, rng, all_pairs=True, name=f"s{i}"
        )
    return queries, stream_map


def replay(monitor, streams) -> None:
    for stream_id, stream in streams.items():
        monitor.add_stream(stream_id, stream.initial)
    horizon = min(len(stream.operations) for stream in streams.values())
    for t in range(horizon):
        for stream_id, stream in streams.items():
            monitor.apply(stream_id, stream.operations[t])


def assert_worker_spans_have_coordinator_ancestors(records) -> int:
    """Every worker-side ``monitor.apply`` span must walk its parent_id
    chain to a coordinator-side span; returns how many were checked."""
    by_id = {record.span_id: record for record in records}
    checked = 0
    for record in records:
        if record.process == "coordinator" or record.name != "monitor.apply":
            continue
        checked += 1
        cursor = record
        while cursor.parent_id is not None:
            parent = by_id.get(cursor.parent_id)
            assert parent is not None, (
                f"orphan parent id {cursor.parent_id} on {record.name} "
                f"in {record.process}"
            )
            cursor = parent
        assert cursor.process == "coordinator", (
            f"{record.name} in {record.process} roots at {cursor.process}, "
            "not the coordinator"
        )
    return checked


# ----------------------------------------------------------------------
# minting and the frame stack
# ----------------------------------------------------------------------
class TestIds:
    def test_ids_are_unique_and_typed(self):
        trace_ids = {trace_mod.new_trace_id() for _ in range(100)}
        span_ids = {trace_mod.new_span_id() for _ in range(100)}
        assert len(trace_ids) == 100 and len(span_ids) == 100
        assert all(t.startswith("t-") for t in trace_ids)
        assert all(s.startswith("s-") for s in span_ids)
        assert not trace_ids & span_ids

    def test_ids_embed_the_pid(self):
        assert f"-{os.getpid():x}-" in trace_mod.new_trace_id()

    def test_process_label_default_and_override(self):
        previous = trace_mod._process_label
        try:
            trace_mod._process_label = None  # the never-labelled default
            assert trace_mod.process_label() == f"pid-{os.getpid()}"
            trace_mod.set_process_label("coordinator")
            assert trace_mod.process_label() == "coordinator"
        finally:
            trace_mod._process_label = previous

    def test_default_label_is_formatted_once_per_pid(self, monkeypatch):
        monkeypatch.setattr(trace_mod, "_process_label", None)
        for name in ("a", "b"):
            with obs.span(name):
                pass
        first, second = obs.spans()
        assert first.process == f"pid-{os.getpid()}"
        assert first.process is second.process  # one string, not one per span
        monkeypatch.setattr(os, "getpid", lambda: 4242)  # a forked child, unlabelled
        assert trace_mod.process_label() == "pid-4242"


class TestNesting:
    def test_nested_spans_share_a_trace(self):
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        inner, outer = obs.spans()
        assert inner.trace_id == outer.trace_id
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.span_id != outer.span_id

    def test_sequential_roots_get_distinct_traces(self):
        with obs.span("first"):
            pass
        with obs.span("second"):
            pass
        first, second = obs.spans()
        assert first.trace_id != second.trace_id

    def test_current_context_tracks_innermost_span(self):
        assert trace_mod.current_context() is None
        with obs.span("outer"):
            outer_ctx = trace_mod.current_context()
            with obs.span("inner"):
                inner_ctx = trace_mod.current_context()
                assert inner_ctx.trace_id == outer_ctx.trace_id
                assert inner_ctx.span_id != outer_ctx.span_id
        assert trace_mod.current_context() is None


# ----------------------------------------------------------------------
# envelopes and attachment
# ----------------------------------------------------------------------
class TestEnvelopes:
    def test_stamp_outside_any_span_is_identity(self):
        command = ("apply", 7, "s0", None)
        assert obs.stamp_envelope(command) is command

    def test_stamp_and_split_round_trip(self):
        command = ("apply", 7, "s0", None)
        with obs.span("driver"):
            envelope = obs.stamp_envelope(command)
            ctx = trace_mod.current_context()
        assert envelope[: len(command)] == command
        base, split_ctx = obs.split_envelope(envelope)
        assert base == command
        assert split_ctx == ctx

    def test_split_unstamped_returns_none_context(self):
        command = ("poll", 3)
        assert obs.split_envelope(command) == (command, None)

    def test_attached_context_parents_root_spans(self):
        remote = TraceContext(trace_id="t-abc-1", span_id="s-abc-2")
        with obs.attached(remote):
            with obs.span("worker.stage"):
                pass
        [record] = obs.spans()
        assert record.trace_id == "t-abc-1"
        assert record.parent_id == "s-abc-2"

    def test_attached_none_forces_fresh_traces(self):
        remote = TraceContext(trace_id="t-abc-1", span_id="s-abc-2")
        with obs.attached(remote):
            with obs.attached(None):  # journal replay inside a live batch
                with obs.span("replayed"):
                    pass
            with obs.span("live"):
                pass
        replayed, live = obs.spans()
        assert replayed.parent_id is None
        assert replayed.trace_id != "t-abc-1"
        assert live.trace_id == "t-abc-1"  # attachment restored


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------
class TestChromeExport:
    def _records(self):
        with obs.span("monitor.apply", stream="s0"):
            with obs.span("nnt.batch_update"):
                pass
        return obs.spans()

    def test_structure_and_serializability(self):
        data = obs.to_chrome(self._records())
        assert data["displayTimeUnit"] == "ms"
        events = data["traceEvents"]
        json.dumps(data)  # must be plain-JSON serializable
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert [e["name"] for e in meta] == ["process_name"]
        assert {e["name"] for e in complete} == {"monitor.apply", "nnt.batch_update"}
        for event in complete:
            assert event["ts"] >= 0 and event["dur"] >= 0  # microseconds
            assert event["args"]["trace_id"].startswith("t-")

    def test_coordinator_track_is_pid_zero(self):
        records = self._records()
        relabeled = [
            record._replace(process=label)
            for record, label in zip(records, ("shard-1", "coordinator"))
        ]
        data = obs.to_chrome(relabeled)
        names = {
            e["pid"]: e["args"]["name"]
            for e in data["traceEvents"]
            if e["ph"] == "M"
        }
        assert names[0] == "coordinator"

    def test_span_attrs_ride_in_args(self):
        data = obs.to_chrome(self._records())
        apply_event = next(
            e for e in data["traceEvents"] if e.get("name") == "monitor.apply"
        )
        assert apply_event["args"]["stream"] == "s0"

    def test_render_critical_spans_ranks_by_duration(self):
        text = obs.render_critical_spans(self._records(), top=5)
        lines = text.splitlines()
        assert "critical spans" in lines[0]
        assert "monitor.apply" in lines[2]  # longest first (it encloses)
        assert "nnt.batch_update" in text

    def test_render_critical_spans_empty(self):
        text = obs.render_critical_spans([], top=5)
        assert "top 0 critical spans of 0" in text


# ----------------------------------------------------------------------
# cross-process propagation through the real runtime
# ----------------------------------------------------------------------
class TestShardedTraces:
    def test_worker_apply_spans_have_coordinator_ancestors(self):
        from repro.runtime import ShardedMonitor

        queries, streams = small_workload(seed=41)
        with ShardedMonitor(queries, method="dsc", num_workers=2) as sharded:
            replay(sharded, streams)
            records = sharded.trace_spans()
        processes = {record.process for record in records}
        assert processes == {"coordinator", "shard-0", "shard-1"}
        assert assert_worker_spans_have_coordinator_ancestors(records) > 0
        # And the whole collection exports as loadable Chrome JSON.
        json.dumps(obs.to_chrome(records))

    def test_recovered_worker_reattaches_to_fresh_traces(self):
        """Kill a worker mid-replay: the journal replay must open fresh
        traces (roots, no parents), and nothing in the collected set may
        reference a parent id that no longer exists."""
        from repro.runtime import ShardedMonitor

        queries, streams = small_workload(seed=42, timestamps=6)
        with ShardedMonitor(queries, method="dsc", num_workers=2) as sharded:
            for stream_id, stream in streams.items():
                sharded.add_stream(stream_id, stream.initial)
            horizon = min(len(s.operations) for s in streams.values())
            kill_at = horizon // 2
            for t in range(horizon):
                for stream_id, stream in streams.items():
                    sharded.apply(stream_id, stream.operations[t])
                if t == kill_at:
                    victim = sharded.worker_pids()[0]
                    os.kill(victim, signal.SIGKILL)
                    time.sleep(0.05)
            sharded.matches()  # triggers recovery + journal replay
            records = sharded.trace_spans()

        by_id = {record.span_id: record for record in records}
        coordinator_traces = {
            record.trace_id
            for record in records
            if record.process == "coordinator"
        }
        recovered_roots = 0
        for record in records:
            if record.process == "coordinator":
                continue
            # No orphans: every parent id resolves within the collection.
            cursor = record
            while cursor.parent_id is not None:
                parent = by_id.get(cursor.parent_id)
                assert parent is not None, (
                    f"orphan parent id {cursor.parent_id} on {record.name}"
                )
                cursor = parent
            if cursor.parent_id is None and cursor.process != "coordinator":
                # A worker-side root: must be a *fresh* trace, not a
                # stale coordinator trace adopted across the restart.
                if cursor.trace_id not in coordinator_traces:
                    recovered_roots += 1
        assert recovered_roots > 0, "journal replay produced no fresh traces"

    def test_merge_summaries_remains_lossless_with_traced_run(self):
        """Trace propagation must not break the fleet metric merge: the
        sharded stats still carry every worker's labelled instruments."""
        from repro.runtime import ShardedMonitor

        queries, streams = small_workload(seed=43)
        with ShardedMonitor(queries, method="dsc", num_workers=2) as sharded:
            replay(sharded, streams)
            merged = sharded.stats()["merged_obs"]
        assert merged["monitor.apply.seconds"]["count"] > 0
        from repro.obs.exposition import render_prometheus

        render_prometheus(merged)  # labelled entries must render cleanly


# ----------------------------------------------------------------------
# the CLI surface
# ----------------------------------------------------------------------
class TestTraceCli:
    def _write_workload(self, tmp_path):
        from repro.graph.io import write_graph_set, write_stream

        queries, streams = small_workload(seed=44, streams=2, timestamps=3)
        qpath = tmp_path / "queries.txt"
        write_graph_set(list(queries.values()), qpath, names=list(queries))
        spaths = []
        for stream_id, stream in streams.items():
            path = tmp_path / f"{stream_id}.txt"
            write_stream(stream, path)
            spaths.append(str(path))
        return str(qpath), spaths

    def test_chrome_export_via_sharded_replay(self, tmp_path, capsys):
        from repro.cli import main

        qpath, spaths = self._write_workload(tmp_path)
        out = tmp_path / "trace.json"
        code = main(
            ["trace", "--queries", qpath, "--streams", *spaths,
             "--workers", "2", "--format", "chrome", "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["displayTimeUnit"] == "ms"
        tracks = {
            e["args"]["name"] for e in data["traceEvents"] if e["ph"] == "M"
        }
        assert tracks == {"coordinator", "shard-0", "shard-1"}
        assert any(
            e.get("name") == "monitor.apply" and e["pid"] != 0
            for e in data["traceEvents"]
        )

    def test_text_export_in_process(self, tmp_path, capsys):
        from repro.cli import main

        qpath, spaths = self._write_workload(tmp_path)

        def rows(top: int) -> tuple[int, list[tuple[float, str]]]:
            """The collected count and the ``(TOTAL_MS, NAME)`` of each
            table row of one text export."""
            assert main(["trace", "--queries", qpath, "--streams", *spaths,
                         "--format", "text", "--top", str(top)]) == 0
            title, header, *table = capsys.readouterr().out.splitlines()
            assert "critical spans" in title and "TOTAL_MS" in header
            collected = int(title.split(" of ")[1].split()[0])
            return collected, [(float(line.split()[0]), line.split()[3]) for line in table]

        # Which spans are longest is timing; how many and in what order is not.
        _, top3 = rows(3)
        assert len(top3) == 3
        totals = [total for total, _ in top3]
        assert totals == sorted(totals, reverse=True)
        collected, everything = rows(10**6)
        assert len(everything) == collected  # every span shown
        names = {name for _, name in everything}
        assert {name for _, name in top3} <= names
        assert "monitor.apply" in names
