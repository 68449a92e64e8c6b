"""The crash flight recorder: ring, journal, rotation, dumps, signals.

The headline guarantee is the SIGKILL test: a worker killed with no
chance to run handlers still leaves its per-command JSONL journal
readable up to the final pre-crash event, because every ``note()``
write-and-flushes eagerly.  The SIGUSR2 and dump tests cover the
cooperative snapshot channel.
"""

from __future__ import annotations

import json
import os
import random
import signal
import time

import pytest

from repro import obs
from repro.graph.operations import EdgeChange, GraphChangeOperation
from repro.obs import Registry
from repro.obs.flight import FlightRecorder, install_signal_dump
from repro.runtime import ShardedMonitor

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


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


# ----------------------------------------------------------------------
# in-memory ring
# ----------------------------------------------------------------------
class TestRing:
    def test_ring_is_bounded_and_ordered(self):
        recorder = FlightRecorder(capacity=3, clock=FakeClock())
        for i in range(5):
            recorder.note("tick", i=i)
        events = recorder.events()
        assert [event["i"] for event in events] == [2, 3, 4]
        assert [event["seq"] for event in events] == [3, 4, 5]

    def test_disabled_records_nothing(self):
        recorder = FlightRecorder(capacity=4)
        obs.disable()
        assert recorder.note("ghost") is None
        assert recorder.events() == []

    def test_notes_mint_the_flight_counter(self):
        recorder = FlightRecorder(capacity=4)
        recorder.note("a")
        recorder.note("b")
        entry = obs.get_registry().summary()["flight.events"]
        assert entry["value"] == 2

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


# ----------------------------------------------------------------------
# the disk journal
# ----------------------------------------------------------------------
class TestJournal:
    def test_notes_are_flushed_immediately(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        recorder = FlightRecorder(path, capacity=8)
        recorder.note("refusal", code="overloaded")
        # Read the file back WITHOUT closing: a SIGKILL would not close
        # either, so durability must not depend on close().
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["kind"] == "refusal"
        recorder.close()

    def test_rotation_keeps_a_bounded_tail(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        recorder = FlightRecorder(path, capacity=2, clock=FakeClock())
        for i in range(10):  # rotates at every 8 lines
            recorder.note("tick", i=i)
        recorder.close()
        rotated = path.with_name(path.name + ".old")
        assert rotated.exists()
        assert len(path.read_text().splitlines()) == 2
        # read() stitches the rotated tail back in front, in order.
        events = FlightRecorder.read(path)
        assert [event["i"] for event in events] == list(range(10))

    def test_read_missing_rotation_is_fine(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        recorder = FlightRecorder(path, capacity=8)
        recorder.note("only")
        recorder.close()
        events = FlightRecorder.read(path)
        assert [event["kind"] for event in events] == ["only"]


# ----------------------------------------------------------------------
# snapshots
# ----------------------------------------------------------------------
class TestDump:
    def test_dump_carries_events_spans_and_metrics(self, tmp_path):
        recorder = FlightRecorder(capacity=8, clock=FakeClock())
        recorder.note("refusal", session="s-1")
        with obs.span("unit.work"):
            pass
        target = recorder.dump(tmp_path / "flight.json", reason="test")
        doc = FlightRecorder.read(target)
        assert doc["reason"] == "test"
        assert doc["pid"] == os.getpid()
        assert [event["kind"] for event in doc["events"]] == ["refusal"]
        assert any(span["name"] == "unit.work" for span in doc["spans"])
        assert "flight.events" in doc["metrics"]

    def test_dumped_spans_are_objects_with_every_field(self, tmp_path):
        # Span records are NamedTuples, which json would write as arrays.
        recorder = FlightRecorder(capacity=8, clock=FakeClock())
        with obs.span("unit.work", stream="s-1"):
            pass
        doc = json.loads(recorder.dump(tmp_path / "flight.json", reason="test").read_text())
        assert all(isinstance(span, dict) for span in doc["spans"])
        (span,) = [span for span in doc["spans"] if span["name"] == "unit.work"]
        assert set(span) == {
            "name", "started", "duration", "depth", "parent", "error", "trace_id",
            "span_id", "parent_id", "process", "error_type", "attrs",
        }
        assert span["attrs"] == {"stream": "s-1"}

    def test_dump_is_atomic(self, tmp_path):
        recorder = FlightRecorder(capacity=4)
        target = recorder.dump(tmp_path / "flight.json", reason="x")
        assert not target.with_name(target.name + ".tmp").exists()

    def test_sigusr2_dumps_a_snapshot(self, tmp_path):
        recorder = FlightRecorder(capacity=8)
        recorder.note("before-signal")
        previous = signal.getsignal(signal.SIGUSR2)
        try:
            assert install_signal_dump(recorder, tmp_path, label="testproc")
            os.kill(os.getpid(), signal.SIGUSR2)
            target = tmp_path / "flight-testproc-sigusr2.json"
            assert target.exists()
            doc = FlightRecorder.read(target)
            assert doc["reason"] == "sigusr2"
            assert [event["kind"] for event in doc["events"]] == ["before-signal"]
        finally:
            signal.signal(signal.SIGUSR2, previous)


# ----------------------------------------------------------------------
# the SIGKILL guarantee (acceptance criterion)
# ----------------------------------------------------------------------
class TestWorkerJournal:
    def _queries(self, rng: random.Random) -> dict:
        return {"q0": random_labeled_graph(rng, 3, extra_edges=1)}

    def test_sigkilled_worker_leaves_readable_precrash_journal(self, tmp_path):
        rng = random.Random(7)
        with ShardedMonitor(
            self._queries(rng), num_workers=1, flight_dir=tmp_path
        ) as sharded:
            sharded.add_stream("s0", random_labeled_graph(rng, 5, extra_edges=2))
            sharded.apply(
                "s0",
                GraphChangeOperation(
                    [EdgeChange("ins", 100, 101, "x", "A", "B")]
                ),
            )
            sharded.matches()  # barrier: both commands fully processed
            pid = sharded.worker_pids()[0]
            assert pid is not None
            os.kill(pid, signal.SIGKILL)
            time.sleep(0.05)
            journal = tmp_path / "flight-shard0.jsonl"
            assert journal.exists()
            events = FlightRecorder.read(journal)
            # Per-command notes survived the kill, flushed pre-crash.
            verbs = [e["verb"] for e in events if e["kind"] == "command"]
            assert "add_stream" in verbs
            assert "apply" in verbs
            spans = [e.get("span") for e in events if e["kind"] == "command"]
            assert any(spans), "command notes should carry their span name"
            # Recovery respawns the shard and the journal keeps growing.
            assert sharded.matches() is not None

    def test_worker_commands_journal_in_order(self, tmp_path):
        rng = random.Random(8)
        with ShardedMonitor(
            self._queries(rng), num_workers=1, flight_dir=tmp_path
        ) as sharded:
            sharded.add_stream("s0", random_labeled_graph(rng, 4, extra_edges=1))
            sharded.matches()
        events = FlightRecorder.read(tmp_path / "flight-shard0.jsonl")
        seqs = [event["seq"] for event in events]
        assert seqs == sorted(seqs)
        assert all("wall" in event for event in events)
