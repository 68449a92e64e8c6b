"""The sharded runtime must be a behavioural drop-in for the
single-process monitor: identical answers at every poll for every worker
count, lossless recovery after a worker is killed, and bounded inboxes
that make the caller wait."""

from __future__ import annotations

import os
import pickle
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import obs
from repro.core import checkpoint_stats, load_monitor
from repro.core.monitor import StreamMonitor
from repro.datasets.stream_gen import synthesize_stream
from repro.graph import EdgeChange, GraphChangeOperation, LabeledGraph
from repro.runtime import (
    ShardRouter,
    ShardedMonitor,
    WorkerCrashed,
    WorkerDied,
    stable_hash,
)
from repro.runtime.worker import CMD_ADD_STREAM, CMD_POLL, WorkerProcess
from repro.serve.protocol import parse_text_line
from repro.serve.session import MonitorBridge, Session

from .conftest import random_labeled_graph
from .processes import exited, fds, wait_exited
from .test_monitor import count_calls

ENGINE_METHODS = ("nl", "dsc", "skyline", "matrix")


def small_queries(rng: random.Random, count: int = 3) -> dict:
    return {
        f"q{i}": random_labeled_graph(rng, rng.randint(2, 4), extra_edges=1)
        for i in range(count)
    }


def small_streams(rng: random.Random, count: int = 3, timestamps: int = 5) -> dict:
    streams = {}
    for i in range(count):
        base = random_labeled_graph(rng, rng.randint(4, 7), extra_edges=2)
        streams[f"s{i}"] = synthesize_stream(
            base, 0.3, 0.2, timestamps, rng, all_pairs=True, name=f"s{i}"
        )
    return streams


def drive_both(sharded: ShardedMonitor, streams: dict) -> None:
    """Register streams and replay, asserting answer equality against a
    freshly built in-process oracle at every timestamp."""
    oracle = StreamMonitor(
        sharded.spec.queries,
        method=sharded.spec.method,
        depth_limit=sharded.spec.depth_limit,
    )
    for stream_id, stream in streams.items():
        sharded.add_stream(stream_id, stream.initial)
        oracle.add_stream(stream_id, stream.initial)
    assert sharded.matches() == oracle.matches()
    horizon = min(len(stream.operations) for stream in streams.values())
    for t in range(horizon):
        for stream_id, stream in streams.items():
            sharded.apply(stream_id, stream.operations[t])
            oracle.apply(stream_id, stream.operations[t])
        assert sharded.matches() == oracle.matches(), f"diverged at t={t + 1}"


# ----------------------------------------------------------------------
# consistent-hash router
# ----------------------------------------------------------------------
class TestShardRouter:
    def test_deterministic_across_instances(self):
        keys = [f"stream-{i}" for i in range(50)]
        a, b = ShardRouter(4), ShardRouter(4)
        assert [a.shard_for(k) for k in keys] == [b.shard_for(k) for k in keys]

    def test_stable_hash_is_process_independent(self):
        # blake2b, not the salted builtin: fixed expectation pins it.
        assert stable_hash("x") == 0xC08F2C0505C6A4C6
        assert stable_hash(1) == 0xF99980EAEB4408DC
        assert stable_hash("1") == 0x874A2536D9BE2B5B
        assert stable_hash("stream-7") == 0xFE0C6DE1900FEEB2
        assert stable_hash("x") == stable_hash("x")
        assert stable_hash("x") != stable_hash("y")
        assert stable_hash(1) != stable_hash("1")  # type-tagged

    def test_every_shard_used(self):
        router = ShardRouter(4)
        shards = {router.shard_for(f"stream-{i}") for i in range(200)}
        assert shards == {0, 1, 2, 3}

    def test_shard_in_range(self):
        router = ShardRouter(3)
        for i in range(100):
            assert 0 <= router.shard_for(i) < 3

    def test_consistent_hashing_limits_movement(self):
        keys = [f"stream-{i}" for i in range(300)]
        four, five = ShardRouter(4), ShardRouter(5)
        moved = sum(1 for k in keys if four.shard_for(k) != five.shard_for(k))
        # Naive modulo hashing moves ~80% of keys on 4 -> 5; the ring
        # should move roughly 1/5 and certainly far less than half.
        assert moved < len(keys) * 0.5

    def test_assignment_covers_all_keys(self):
        router = ShardRouter(2)
        keys = [f"s{i}" for i in range(20)]
        assignment = router.assignment(keys)
        assert sorted(assignment) == sorted(keys)
        assert all(shard in (0, 1) for shard in assignment.values())
        assert all(router.shard_for(k) == assignment[k] for k in keys)


# ----------------------------------------------------------------------
# answer equivalence
# ----------------------------------------------------------------------
class TestEquivalence:
    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_matches_equal_single_process_at_every_poll(self, workers):
        rng = random.Random(100 + workers)
        queries = small_queries(rng)
        streams = small_streams(rng)
        with ShardedMonitor(queries, method="dsc", num_workers=workers) as sharded:
            drive_both(sharded, streams)

    @pytest.mark.parametrize("method", ENGINE_METHODS)
    def test_every_engine_method(self, method):
        rng = random.Random(40 + ENGINE_METHODS.index(method))
        queries = small_queries(rng)
        streams = small_streams(rng, count=2, timestamps=4)
        with ShardedMonitor(queries, method=method, num_workers=2) as sharded:
            drive_both(sharded, streams)

    def test_events_match_single_process(self):
        rng = random.Random(7)
        queries = small_queries(rng)
        streams = small_streams(rng)
        oracle = StreamMonitor(queries, method="dsc")
        with ShardedMonitor(queries, method="dsc", num_workers=2) as sharded:
            for stream_id, stream in streams.items():
                sharded.add_stream(stream_id, stream.initial)
                oracle.add_stream(stream_id, stream.initial)
            assert sharded.events() == oracle.events()
            horizon = min(len(s.operations) for s in streams.values())
            for t in range(horizon):
                for stream_id, stream in streams.items():
                    sharded.apply(stream_id, stream.operations[t])
                    oracle.apply(stream_id, stream.operations[t])
                assert sharded.events() == oracle.events(), f"diverged at t={t + 1}"

    def test_remove_stream_drops_its_pairs(self):
        rng = random.Random(13)
        queries = small_queries(rng)
        streams = small_streams(rng, count=2, timestamps=2)
        with ShardedMonitor(queries, num_workers=2) as sharded:
            for stream_id, stream in streams.items():
                sharded.add_stream(stream_id, stream.initial)
            sharded.remove_stream("s0")
            assert all(s != "s0" for s, _ in sharded.matches())
            assert sharded.stream_ids() == ["s1"]


# ----------------------------------------------------------------------
# lifecycle and error surface
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_duplicate_stream_rejected(self):
        rng = random.Random(1)
        with ShardedMonitor(small_queries(rng), num_workers=2) as sharded:
            sharded.add_stream("s0", random_labeled_graph(rng, 3))
            with pytest.raises(ValueError):
                sharded.add_stream("s0", random_labeled_graph(rng, 3))

    def test_add_stream_enqueues_a_graph_of_its_own(self, monkeypatch):
        """The inbox holds the command as pickled at the put, on the
        caller's thread: a change to the caller's graph or to the state of
        record after ``add_stream`` has returned never reaches the worker."""
        rng = random.Random(8)
        initial = random_labeled_graph(rng, 5, extra_edges=2)
        expected = initial.copy()
        with ShardedMonitor(small_queries(rng), num_workers=1) as sharded:
            payloads = []
            send = WorkerProcess.send

            def recording(worker, payload):
                payloads.append(payload)
                send(worker, payload)

            monkeypatch.setattr(WorkerProcess, "send", recording)
            sharded.add_stream("s0", initial)
            for graph in (initial, sharded.graph("s0")):
                graph.add_vertex("late", "A")
            (payload,) = payloads
            (kind, stream_id, sent), _ = obs.split_envelope(pickle.loads(payload))
            assert (kind, stream_id) == (CMD_ADD_STREAM, "s0")
            assert sent == expected != sharded.graph("s0")

    def test_apply_checks_once_then_folds_once(self, monkeypatch):
        """The coordinator judges a batch without writing its graph, then
        folds each change in once after the send: no dry run, no undo."""
        import repro.runtime.fleet as fleet

        edge = LabeledGraph.from_vertices_and_edges([(0, "A"), (1, "B")], [(0, 1, "-")])
        with ShardedMonitor({"q": edge}, num_workers=1) as sharded:
            sharded.add_stream("s", edge)
            checks = count_calls(monkeypatch, fleet, "check_batch")
            added = count_calls(monkeypatch, LabeledGraph, "add_edge")
            removed = count_calls(monkeypatch, LabeledGraph, "remove_edge")
            batch = [EdgeChange.delete(0, 1), EdgeChange.insert(0, 2, "-", "A", "B")]
            sharded.apply("s", GraphChangeOperation(batch))
            assert (len(checks), len(added), len(removed)) == (1, 1, 1)
            assert sharded.matches() == {("s", "q")}

    def test_apply_to_unknown_stream_rejected(self):
        rng = random.Random(2)
        with ShardedMonitor(small_queries(rng), num_workers=1) as sharded:
            with pytest.raises(KeyError):
                sharded.apply("ghost", EdgeChange.insert(0, 1, "-", "A", "B"))

    def test_closed_monitor_rejects_calls(self):
        rng = random.Random(3)
        sharded = ShardedMonitor(small_queries(rng), num_workers=1)
        sharded.close()
        sharded.close()  # idempotent
        with pytest.raises(RuntimeError):
            sharded.matches()

    def test_invalid_configuration_rejected(self):
        rng = random.Random(4)
        queries = small_queries(rng)
        with pytest.raises(ValueError):
            ShardedMonitor(queries, num_workers=0)
        with pytest.raises(TypeError):  # a full inbox always blocks: no knob
            ShardedMonitor(queries, backpressure="block")
        with pytest.raises(ValueError):
            ShardedMonitor(queries, checkpoint_every=5)  # no checkpoint_dir

    def test_worker_exception_surfaces_with_traceback(self, monkeypatch):
        rng = random.Random(5)

        def boom(self, stream_id, update):
            raise RuntimeError("engine fault injected inside the worker")

        # A fault the coordinator cannot pre-validate (a refused batch
        # never reaches a worker any more); forked workers inherit it.
        monkeypatch.setattr(StreamMonitor, "apply", boom)
        with ShardedMonitor(small_queries(rng), num_workers=1) as sharded:
            sharded.add_stream("s0", random_labeled_graph(rng, 3))
            sharded.apply("s0", EdgeChange.insert(100, 101, "-", "A", "B"))
            with pytest.raises((WorkerCrashed, WorkerDied)) as excinfo:
                sharded.matches()
            if excinfo.type is WorkerCrashed:
                assert "engine fault injected" in str(excinfo.value)

    def test_stats_shape(self):
        rng = random.Random(6)
        with ShardedMonitor(small_queries(rng), num_workers=2) as sharded:
            sharded.add_stream("s0", random_labeled_graph(rng, 4))
            sharded.apply("s0", EdgeChange.insert("a", "b", "-", "A", "B"))
            stats = sharded.stats()
        assert stats["num_workers"] == 2
        assert stats["num_streams"] == 1
        assert stats["backpressure"]["queue_capacity"] == 128
        assert stats["backpressure"]["accepted_batches"] == 1
        assert set(stats["workers"]) == {0, 1}
        assert stats["recovery"] == {
            "checkpoints": 0,
            "recoveries": 0,
            "replayed_commands": 0,
        }

    def test_inbox_depth_gauge_is_the_deepest_inbox(self, monkeypatch):
        """What the catalog row and the ``inbox-depth`` SLO rule say it
        is — not the fleet total."""
        rng = random.Random(7)
        with ShardedMonitor(small_queries(rng), num_workers=2) as sharded:
            monkeypatch.setattr(sharded, "inbox_depths", lambda: {0: 3, 1: 5})
            stats = sharded.stats()
        assert stats["inbox_depths"] == {0: 3, 1: 5}
        assert stats["merged_obs"]["runtime.inbox_depth"]["value"] == 5


# ----------------------------------------------------------------------
# backpressure: a full inbox blocks the caller
# ----------------------------------------------------------------------
def _pause_worker(sharded: ShardedMonitor, shard: int) -> int:
    pid = sharded.worker_pids()[shard]
    assert pid is not None
    os.kill(pid, signal.SIGSTOP)
    return pid


class TestBackpressure:
    def test_block_is_lossless_under_tiny_queue(self):
        rng = random.Random(23)
        queries = small_queries(rng)
        streams = small_streams(rng, count=2, timestamps=3)
        with ShardedMonitor(queries, num_workers=2, queue_capacity=1) as sharded:
            drive_both(sharded, streams)
            horizon = min(len(stream.operations) for stream in streams.values())
            assert sharded.stats()["backpressure"]["accepted_batches"] == 2 * horizon

    def test_served_commit_waits_out_a_full_inbox(self):
        """A served ``tick`` over more staged streams than a paused
        worker's inbox holds is acked once the worker has room again,
        with every batch applied: nothing is dropped behind an ``ok``."""
        edge = LabeledGraph.from_vertices_and_edges([(0, "A"), (1, "B")], [(0, 1, "-")])
        streams = [f"s{i}" for i in range(6)]
        with ShardedMonitor({"q": edge}, num_workers=1, queue_capacity=1) as sharded:
            bridge, session = MonitorBridge(sharded), Session(1)
            for stream_id in streams:
                for line in (f"stream {stream_id}", f"ins {stream_id} 1 2 - A B"):
                    assert bridge.execute(session, parse_text_line(line))["ok"]
            sharded.matches()  # every registration read: the inbox is empty
            pid = _pause_worker(sharded, 0)
            resume = threading.Timer(1.0, os.kill, (pid, signal.SIGCONT))
            resume.start()
            started = time.monotonic()
            try:
                reply = bridge.execute(session, parse_text_line("tick"))
            finally:
                resume.cancel()
                os.kill(pid, signal.SIGCONT)
            # One slot, six batches: the commit had to wait for the resume.
            assert time.monotonic() - started >= 0.5
            assert reply["ok"] and reply["applied"] == 6, reply
            assert sorted((e["kind"], e["stream"]) for e in reply["events"]) == [
                ("appeared", stream_id) for stream_id in streams
            ]
            for stream_id in streams:
                assert sharded.graph(stream_id).has_edge("1", "2")  # text ids
            assert sharded.matches() == {(stream_id, "q") for stream_id in streams}

    def test_worker_killed_while_apply_waits_on_its_full_inbox(self):
        """The update an ``apply`` was waiting to put lands exactly once
        on the respawn."""
        edge = LabeledGraph.from_vertices_and_edges([(0, "A"), (1, "B")], [(0, 1, "-")])
        first = EdgeChange.insert(1, 2, "-", "A", "B")  # fills the one slot
        waiting = EdgeChange.insert(2, 3, "-", None, "A")
        oracle = StreamMonitor({"q": edge})
        with ShardedMonitor(
            {"q": edge}, num_workers=1, queue_capacity=1, shm=True
        ) as sharded:
            for monitor in (sharded, oracle):
                monitor.add_stream("s")
            sharded.matches()  # the inbox is empty
            pid = _pause_worker(sharded, 0)
            for monitor in (sharded, oracle):
                monitor.apply("s", first)
            kill = threading.Timer(0.5, os.kill, (pid, signal.SIGKILL))
            kill.start()
            try:
                sharded.apply("s", waiting)
            finally:
                kill.join()
            oracle.apply("s", waiting)
            assert sharded.matches() == oracle.matches() == {("s", "q")}
            assert sharded.recovery_log.recoveries == 1
            assert sharded.graph("s") == oracle.graph("s")


# ----------------------------------------------------------------------
# the transport: a forked worker on two pipes
# ----------------------------------------------------------------------
#: A coordinator in a process of its own: it prints its workers' pids,
#: then blocks until it is killed.
COORDINATOR = """
import sys
from repro import LabeledGraph, ShardedMonitor

edge = LabeledGraph.from_vertices_and_edges([(0, "A"), (1, "B")], [(0, 1, "-")])
monitor = ShardedMonitor({"q": edge}, num_workers=2)
monitor.add_stream("s", edge)
assert monitor.matches() == {("s", "q")}
print(*monitor.worker_pids().values(), flush=True)
sys.stdin.read()
"""


class TestTransport:
    def test_inbox_depths_count_what_a_paused_worker_has_not_taken(self):
        """Commands sent minus credits received: exact, not a ``qsize``."""
        edge = LabeledGraph.from_vertices_and_edges([(0, "A"), (1, "B")], [(0, 1, "-")])
        with ShardedMonitor({"q": edge}, num_workers=1) as sharded:
            sharded.add_stream("s", edge)
            sharded.matches()  # the poll's credit comes before its reply
            assert sharded.inbox_depths() == {0: 0}
            pid = _pause_worker(sharded, 0)
            try:
                for k in range(2, 7):
                    sharded.apply("s", EdgeChange.insert(k - 1, k, "-", None, "A"))
                assert sharded.inbox_depths() == {0: 5}
            finally:
                os.kill(pid, signal.SIGCONT)
            sharded.matches()
            assert sharded.inbox_depths() == {0: 0}

    @pytest.mark.parametrize("waiting", ["credit", "reply"])
    def test_a_worker_killed_during_a_wait_is_found_dead_at_once(self, waiting):
        """EOF on the outbox is the death: a put waiting for a credit, or a
        receive waiting for a reply, raises as soon as the worker is gone
        (a queue transport only saw it at the end of a 0.2 s poll slice)."""
        edge = LabeledGraph.from_vertices_and_edges([(0, "A"), (1, "B")], [(0, 1, "-")])
        with ShardedMonitor({"q": edge}, num_workers=1, queue_capacity=1) as sharded:
            sharded.matches()
            worker = sharded._workers[0]
            pid = _pause_worker(sharded, 0)
            worker.put((CMD_POLL, 1))  # fills the inbox's one slot
            os.kill(pid, signal.SIGKILL)
            assert not wait_exited([pid], 10)
            started = time.monotonic()
            with pytest.raises(WorkerDied):
                if waiting == "credit":
                    worker.put((CMD_POLL, 2))
                else:
                    worker.receive(CMD_POLL)
            assert time.monotonic() - started < 0.2
            assert sharded.matches() == set()  # the next call recovers
            assert sharded.recovery_log.recoveries == 1

    def test_a_frame_torn_by_an_interrupt_kills_its_worker(self, monkeypatch):
        """An interrupt while a large frame waits for room leaves part of
        it on the inbox: the worker is killed before the interrupt goes
        on, so no later command is read from the middle of a payload, and
        the next call recovers it without the batch."""
        edge = LabeledGraph.from_vertices_and_edges([(0, "A"), (1, "B")], [(0, 1, "-")])
        batch = GraphChangeOperation(
            [EdgeChange.insert(k, k + 1, "-", "A", "B") for k in range(2, 40_000, 2)]
        )
        assert len(pickle.dumps(batch)) > 4 * (1 << 16)  # more than a pipe holds
        with ShardedMonitor({"q": edge}, num_workers=1) as sharded:
            sharded.add_stream("s", edge)
            sharded.matches()
            pid = _pause_worker(sharded, 0)

            def interrupted(*args, **kwargs):
                raise KeyboardInterrupt

            monkeypatch.setattr(WorkerProcess, "_await", interrupted)
            try:
                with pytest.raises(KeyboardInterrupt):
                    sharded.apply("s", batch)
                monkeypatch.undo()
                assert exited(pid)
            finally:
                if not exited(pid):  # a failure leaves no paused worker
                    os.kill(pid, signal.SIGCONT)
            assert sharded.matches() == {("s", "q")}
            assert sharded.recovery_log.recoveries == 1
            assert sharded.fleet.graphs["s"].num_edges == 1  # never folded

    def test_no_pipe_outlives_a_lifecycle(self, monkeypatch):
        """A worker's pipes are raw descriptors, which no ResourceWarning
        guards, so count them: a recover, a grow, a shrink, a fork or a
        pipe that fails, and a constructor whose second spawn fails leave
        this process holding the descriptors it held before."""
        edge = LabeledGraph.from_vertices_and_edges([(0, "A"), (1, "B")], [(0, 1, "-")])

        def fail_on_call(name: str, call: int) -> None:
            real, calls = getattr(os, name), []

            def failing(*args):
                calls.append(args)
                if len(calls) == call:
                    raise OSError(f"no {name} for call {call}")
                return real(*args)

            monkeypatch.setattr(os, name, failing)

        before = fds()
        with ShardedMonitor({"q": edge}, num_workers=2) as sharded:
            sharded.add_stream("s", edge)
            victim = sharded.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            assert not wait_exited([victim], 10)
            assert sharded.matches() == {("s", "q")}
            assert sharded.recovery_log.recoveries == 1
            sharded.rescale(3)
            sharded.rescale(1)
            for name, call in [("fork", 1), ("pipe", 1), ("pipe", 2)]:
                fail_on_call(name, call)
                with pytest.raises(OSError):
                    sharded.rescale(2)
                monkeypatch.undo()
                assert sharded.num_workers == 1
            assert sharded.matches() == {("s", "q")}
        fail_on_call("fork", 2)
        with pytest.raises(OSError):
            ShardedMonitor({"q": edge}, num_workers=2)
        monkeypatch.undo()
        assert fds() == before

    def test_workers_exit_when_their_coordinator_is_sigkilled(self):
        """Every worker reads EOF on its inbox and exits: no orphan."""
        src = Path(__file__).resolve().parents[1] / "src"
        coordinator = subprocess.Popen(
            [sys.executable, "-c", COORDINATOR],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        try:
            pids = [int(pid) for pid in coordinator.stdout.readline().split()]
            assert len(pids) == 2 and not any(map(exited, pids))
        finally:
            coordinator.kill()
            coordinator.wait()
            coordinator.stdin.close()
            coordinator.stdout.close()
        orphans = wait_exited(pids, 5)
        for pid in orphans:  # a failure leaves nothing running
            os.kill(pid, signal.SIGKILL)
        assert orphans == set()


# ----------------------------------------------------------------------
# checkpointing and recovery
# ----------------------------------------------------------------------
class TestRecovery:
    def test_kill_mid_replay_no_false_negatives(self, tmp_path):
        rng = random.Random(31)
        queries = small_queries(rng)
        streams = small_streams(rng, count=3, timestamps=6)
        oracle = StreamMonitor(queries, method="dsc")
        with ShardedMonitor(
            queries,
            method="dsc",
            num_workers=2,
            checkpoint_dir=tmp_path / "ckpt",
        ) as sharded:
            for stream_id, stream in streams.items():
                sharded.add_stream(stream_id, stream.initial)
                oracle.add_stream(stream_id, stream.initial)
            horizon = min(len(s.operations) for s in streams.values())
            kill_at = horizon // 2
            for t in range(horizon):
                if t == kill_at:
                    sharded.checkpoint()
                for stream_id, stream in streams.items():
                    sharded.apply(stream_id, stream.operations[t])
                    oracle.apply(stream_id, stream.operations[t])
                if t == kill_at:
                    victim = sharded.worker_pids()[0]
                    os.kill(victim, signal.SIGKILL)
                    # Give the kernel a moment to reap it so liveness
                    # checks observe the death promptly.
                    time.sleep(0.05)
            assert sharded.matches() == oracle.matches()
            summary = sharded.recovery_log.summary()
            assert summary["recoveries"] >= 1
            assert summary["checkpoints"] == 1  # calls, not shards
            assert summary["replayed_commands"] >= 1

    def test_recover_without_checkpoint_replays_from_birth(self):
        """No checkpoint directory at all: a respawn is seeded from the
        coordinator's live graphs, which is all recovery ever reads."""
        rng = random.Random(32)
        queries = small_queries(rng)
        streams = small_streams(rng, count=2, timestamps=3)
        oracle = StreamMonitor(queries, method="dsc")
        with ShardedMonitor(queries, num_workers=1) as sharded:
            for stream_id, stream in streams.items():
                sharded.add_stream(stream_id, stream.initial)
                oracle.add_stream(stream_id, stream.initial)
            for t in range(min(len(s.operations) for s in streams.values())):
                for stream_id, stream in streams.items():
                    sharded.apply(stream_id, stream.operations[t])
                    oracle.apply(stream_id, stream.operations[t])
            os.kill(sharded.worker_pids()[0], signal.SIGKILL)
            time.sleep(0.05)
            assert sharded.matches() == oracle.matches()
            assert sharded.recovery_log.recoveries == 1

    def test_recover_dead_respawns_and_preserves_answers(self, tmp_path):
        rng = random.Random(33)
        queries = small_queries(rng)
        with ShardedMonitor(
            queries, num_workers=2, checkpoint_dir=tmp_path / "ckpt"
        ) as sharded:
            sharded.add_stream("s0", random_labeled_graph(rng, 5, extra_edges=2))
            before = sharded.matches()
            sharded.checkpoint()
            for pid in sharded.worker_pids().values():
                os.kill(pid, signal.SIGKILL)
            time.sleep(0.05)
            recovered = sharded.recover_dead()
            assert sorted(recovered) == [0, 1]
            assert sharded.matches() == before

    def test_auto_checkpoint_cadence(self, tmp_path):
        rng = random.Random(34)
        queries = small_queries(rng)
        with ShardedMonitor(
            queries,
            num_workers=2,
            checkpoint_dir=tmp_path / "ckpt",
            checkpoint_every=2,
        ) as sharded:
            sharded.add_stream("s0", random_labeled_graph(rng, 4))
            for i in range(4):
                sharded.apply("s0", EdgeChange.insert(70 + i, 80 + i, "-", "A", "B"))
            # 4 accepted batches / cadence 2 = 2 exports of one directory.
            assert sharded.recovery_log.checkpoints == 2
            assert sharded.stats()["recovery"]["checkpoints"] == 2
            assert checkpoint_stats(tmp_path / "ckpt")["generation"] == 2
            assert load_monitor(tmp_path / "ckpt").graph("s0") == sharded.graph("s0")

    def test_checkpoint_requires_directory(self):
        rng = random.Random(35)
        with ShardedMonitor(small_queries(rng), num_workers=1) as sharded:
            with pytest.raises(RuntimeError):
                sharded.checkpoint()


# ----------------------------------------------------------------------
# parity with the library quickstart
# ----------------------------------------------------------------------
def test_quickstart_parity():
    """The README quickstart, verbatim, against the runtime facade."""
    from repro import LabeledGraph

    pattern = LabeledGraph.from_vertices_and_edges(
        [(0, "A"), (1, "B"), (2, "C")], [(0, 1, "-"), (1, 2, "-")]
    )
    with ShardedMonitor({"triangle-feed": pattern}, method="dsc", num_workers=2) as m:
        m.add_stream("net0")
        m.apply("net0", EdgeChange.insert(7, 8, "-", "A", "B"))
        m.apply("net0", EdgeChange.insert(8, 9, "-", None, "C"))
        assert m.matches() == {("net0", "triangle-feed")}
