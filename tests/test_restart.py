"""Restart equivalence: stop, start on the same checkpoint directory,
same answer.

The fraud-ring script runs on a monitor and on an uninterrupted
in-process twin; the monitor is checkpointed, closed (library) or
drained / killed (``repro serve --tcp``), started again from the one
export, and from then on must read like the twin: ``matches()`` at the
restore point and after every later tick, ``events()`` from the second
poll on (the first poll after a restore reports the whole current
answer as ``appeared``, like any new monitor or session).  A query is
registered and one retired before the checkpoint, so what comes back is
the *live* set; the export is read at another worker count and in
process; vertex ids are ints or strings.

Also here: the export is replaced atomically (a writer that fails
half-way leaves the previous export loadable) and leaves nothing behind
(the directory's file count is constant over 50 checkpoints).
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import checkpoint as checkpoint_module
from repro.core import load_monitor
from repro.core.monitor import StreamMonitor, diff_polls
from repro.graph import EdgeChange, GraphChangeOperation
from repro.graph.io import write_graph_set
from repro.runtime import ShardedMonitor
from repro.serve.protocol import change_to_dict

from .test_bounded_recovery import RAW_DIR, fraud_ring_loop

REPO_ROOT = Path(__file__).resolve().parents[1]
BEFORE, AFTER = 9, 12  # ticks before the checkpoint, ticks after the restart
INITIAL = ("money-cycle", "mule-fan-in")
LIVE = ["layering-chain", "money-cycle"]  # after the churn below


def scenario(ids: type) -> tuple[dict, list[dict]]:
    """The fraud-ring patterns and its looping ticks, vertex ids as
    ``ids`` (the script's own are strings)."""
    patterns, ticks = fraud_ring_loop()
    if ids is int:
        ticks = [
            {
                stream_id: GraphChangeOperation(
                    EdgeChange(
                        change.op, int(change.u), int(change.v),
                        change.edge_label, change.u_label, change.v_label,
                    )
                    for change in batch
                )
                for stream_id, batch in tick.items()
            }
            for tick in ticks
        ]
    return patterns, ticks


def churn(step: int, patterns: dict) -> list[tuple]:
    """The query churn that precedes the checkpoint, as monitor calls."""
    if step == 3:
        return [("register_query", "layering-chain", patterns["layering-chain"])]
    if step == 6:
        return [("deregister_query", "mule-fan-in")]
    return []


def events_of(monitor) -> list[tuple]:
    return [(e.kind, e.stream_id, e.query_id) for e in monitor.events()]


def wire_events(reply: dict) -> list[tuple]:
    """The same triples from a served ``commit`` / ``poll`` reply."""
    return [(e["kind"], e["stream"], e["query"]) for e in reply["events"]]


def open_monitor(workers: int, queries: dict, directory: Path):
    if workers == 0:
        return StreamMonitor(queries, checkpoint_dir=directory)
    return ShardedMonitor(queries, num_workers=workers, checkpoint_dir=directory)


def restore_monitor(workers: int, directory: Path):
    if workers == 0:
        return load_monitor(directory)
    return ShardedMonitor.restore(directory, num_workers=workers)


# ----------------------------------------------------------------------
# library level (tier-1)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("ids", [str, int], ids=["str-ids", "int-ids"])
@pytest.mark.parametrize(
    "before, after",
    [(0, 0), (1, 1), (3, 3), (3, 2), (3, 0)],
    ids=["in-process", "1-worker", "3-workers", "3-to-2-workers", "3-workers-to-in-process"],
)
def test_restart_reads_like_an_uninterrupted_twin(before, after, ids, tmp_path):
    patterns, ticks = scenario(ids)
    queries = {key: patterns[key] for key in INITIAL}
    twin = StreamMonitor(queries)
    with open_monitor(before, queries, tmp_path) as monitor:
        for each in (monitor, twin):
            each.add_stream("cards")
            each.add_stream("wires")
        for step in range(BEFORE):
            for each in (monitor, twin):
                for stream_id, batch in ticks[step].items():
                    each.apply(stream_id, batch)
                for call, *arguments in churn(step, patterns):
                    getattr(each, call)(*arguments)
            assert events_of(monitor) == events_of(twin)
        export = monitor.checkpoint()
    assert (export["num_queries"], export["num_streams"]) == (2, 2)

    with restore_monitor(after, tmp_path) as restored:
        assert sorted(restored.query_ids()) == sorted(twin.query_ids()) == LIVE
        assert restored.matches() == twin.matches() != set()
        # The first poll reports the whole answer; the twin's is spent.
        assert events_of(restored) == sorted(
            ("appeared", stream_id, query_id) for stream_id, query_id in twin.matches()
        )
        assert events_of(twin) == []
        for step in range(BEFORE, BEFORE + AFTER):
            for each in (restored, twin):
                for stream_id, batch in ticks[step % len(ticks)].items():
                    each.apply(stream_id, batch)
            assert restored.matches() == twin.matches(), step
            assert events_of(restored) == events_of(twin), step
        for stream_id in ("cards", "wires"):
            assert restored.graph(stream_id) == twin.graph(stream_id)
        if after == 0:
            for index in restored._indexes.values():
                index.check_integrity()
        else:  # the workers hold what the coordinator restored
            held = restored.stats()["workers"]
            for stream_id in ("cards", "wires"):
                sizes = held[restored.shard_of(stream_id)]["monitor"]["streams"][stream_id]
                assert sizes["num_edges"] == twin.graph(stream_id).num_edges
                assert sizes["num_vertices"] == twin.graph(stream_id).num_vertices


def test_export_includes_updates_a_worker_has_not_read(tmp_path):
    """No barrier: the coordinator exports its own folded graphs, so an
    update still waiting in a stopped worker's inbox is in the export."""
    patterns, ticks = scenario(str)
    queries = {key: patterns[key] for key in INITIAL}
    twin = StreamMonitor(queries)
    twin.add_stream("cards")
    with ShardedMonitor(
        queries, num_workers=1, queue_capacity=8, checkpoint_dir=tmp_path
    ) as sharded:
        sharded.add_stream("cards")
        sharded.matches()
        os.kill(sharded.worker_pids()[0], signal.SIGSTOP)
        try:
            for tick in ticks[:6]:  # six applies fit the eight-slot inbox
                sharded.apply("cards", tick["cards"])
                twin.apply("cards", tick["cards"])
            sharded.checkpoint()
        finally:
            os.kill(sharded.worker_pids()[0], signal.SIGCONT)
        assert load_monitor(tmp_path).graph("cards") == twin.graph("cards")


def test_checkpoint_every_counts_applied_updates_in_process(tmp_path):
    patterns, ticks = scenario(str)
    monitor = StreamMonitor(
        {key: patterns[key] for key in INITIAL},
        checkpoint_dir=tmp_path,
        checkpoint_every=2,
    )
    monitor.add_stream("cards")
    for tick in ticks[:5]:
        monitor.apply("cards", tick["cards"])
    assert checkpoint_module.checkpoint_stats(tmp_path)["generation"] == 2
    with pytest.raises(ValueError):
        StreamMonitor({}, checkpoint_every=2)  # no checkpoint_dir


# ----------------------------------------------------------------------
# the export is replaced atomically and leaves nothing behind
# ----------------------------------------------------------------------
class TestExportIsAtomic:
    def _monitor(self, tmp_path) -> tuple[StreamMonitor, list[dict]]:
        patterns, ticks = scenario(str)
        monitor = StreamMonitor(
            {key: patterns[key] for key in INITIAL}, checkpoint_dir=tmp_path / "ckpt"
        )
        monitor.add_stream("cards")
        monitor.add_stream("wires")
        return monitor, ticks

    def test_torn_second_export_leaves_the_first_loadable(self, tmp_path, monkeypatch):
        monitor, ticks = self._monitor(tmp_path)
        for stream_id, batch in ticks[0].items():
            monitor.apply(stream_id, batch)
        monitor.checkpoint()
        taken_at = {sid: monitor.graph(sid).copy() for sid in monitor.stream_ids()}
        answer = monitor.matches()
        for stream_id, batch in ticks[1].items():
            monitor.apply(stream_id, batch)

        calls = []
        write = checkpoint_module.write_graph_set

        def fail_after_the_first_file(*arguments, **keywords):
            if calls:
                raise OSError(28, "No space left on device")
            calls.append(arguments)
            return write(*arguments, **keywords)

        monkeypatch.setattr(checkpoint_module, "write_graph_set", fail_after_the_first_file)
        with pytest.raises(OSError):
            monitor.checkpoint()
        monkeypatch.undo()
        assert calls  # one data file of the second export did land

        restored = load_monitor(tmp_path / "ckpt")
        assert restored.matches() == answer
        for stream_id, graph in taken_at.items():
            assert restored.graph(stream_id) == graph
        # The next export sweeps the torn one's file away.
        export = monitor.checkpoint()
        assert len(list((tmp_path / "ckpt").iterdir())) == export["num_files"]
        assert load_monitor(tmp_path / "ckpt").graph("cards") == monitor.graph("cards")

    def test_fifty_checkpoints_leave_a_constant_file_count(self, tmp_path):
        monitor, ticks = self._monitor(tmp_path)
        counts = set()
        for step in range(50):
            for stream_id, batch in ticks[step % len(ticks)].items():
                monitor.apply(stream_id, batch)
            export = monitor.checkpoint()
            names = sorted(path.name for path in (tmp_path / "ckpt").iterdir())
            assert not [name for name in names if name.endswith(".tmp")], names
            counts.add(len(names))
            assert export["generation"] == step + 1
        assert counts == {4}  # manifest + queries + one file per stream
        assert load_monitor(tmp_path / "ckpt").matches() == monitor.matches()


# ----------------------------------------------------------------------
# slow lane: `repro serve --tcp`, drained or killed, started again
# ----------------------------------------------------------------------
class Served:
    """One ``repro serve --tcp`` process in its own process group (so a
    SIGKILL can take its workers with it) and one client session."""

    def __init__(self, queries: Path, directory: Path, workers: int) -> None:
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--queries", str(queries),
                "--tcp", "127.0.0.1:0",
                "--workers", str(workers),
                "--checkpoint-dir", str(directory),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            start_new_session=True,
        )
        assert self.process.stdout is not None
        self.listening = json.loads(self.process.stdout.readline() or "{}")
        assert self.listening.get("notice") == "listening", self.listening
        self.socket = socket.create_connection(
            ("127.0.0.1", self.listening["port"]), timeout=60
        )
        self.wire = self.socket.makefile("rw", encoding="utf-8", newline="\n")

    def ask(self, **command) -> dict:
        self.wire.write(json.dumps(command) + "\n")
        self.wire.flush()
        while True:
            reply = json.loads(self.wire.readline())
            if "notice" not in reply:
                assert reply["ok"], reply
                return reply

    def tick(self, tick: dict) -> list[tuple]:
        """Stage and commit one tick; the commit's events."""
        for stream_id, batch in tick.items():
            if len(batch):
                changes = [change_to_dict(change) for change in batch]
                self.ask(cmd="batch", stream=stream_id, changes=changes)
        return wire_events(self.ask(cmd="commit"))

    def matches(self) -> set[tuple]:
        return {tuple(pair) for pair in self.ask(cmd="matches")["matches"]}

    def stop(self, how: int) -> None:
        if how == signal.SIGKILL:
            os.killpg(self.process.pid, signal.SIGKILL)
            self.process.wait(timeout=60)
        else:
            self.process.send_signal(how)
            assert self.process.wait(timeout=60) == 0
        self.close()

    def close(self) -> None:
        if self.process.poll() is None:
            os.killpg(self.process.pid, signal.SIGKILL)
            self.process.wait(timeout=30)
        self.wire.close()
        self.socket.close()
        self.process.stdout.close()


@pytest.mark.slow
@pytest.mark.parametrize("how", [signal.SIGTERM, signal.SIGKILL], ids=["drained", "killed"])
@pytest.mark.parametrize(
    "before, after", [(0, 0), (1, 1), (3, 3), (3, 2)],
    ids=["in-process", "1-worker", "3-workers", "3-to-2-workers"],
)
def test_served_restart_reads_like_an_uninterrupted_twin(before, after, how, tmp_path):
    patterns, ticks = scenario(int)
    queries = {key: patterns[key] for key in INITIAL}
    seed = tmp_path / "queries.txt"
    write_graph_set(list(queries.values()), seed, names=list(queries))
    directory = tmp_path / "ckpt"
    twin = StreamMonitor(queries)
    twin.add_stream("cards")
    twin.add_stream("wires")
    seen: set = set()  # what a session that never disconnected has been told

    def twin_tick(tick: dict) -> list[tuple]:
        """Apply one tick to the twin; the events a session's commit
        reports (a session, unlike a monitor, also hears ``vanished``
        for the pairs of a retired query)."""
        for stream_id, batch in tick.items():
            twin.apply(stream_id, batch)
        events = diff_polls(seen, twin.matches())
        seen.clear()
        seen.update(twin.matches())
        return [(e.kind, e.stream_id, e.query_id) for e in events]

    served = Served(seed, directory, before)
    try:
        assert served.listening["restored"] is False
        served.ask(cmd="stream", stream="cards")
        served.ask(cmd="stream", stream="wires")
        for step in range(BEFORE):
            assert served.tick(ticks[step]) == twin_tick(ticks[step]), step
            for call, *arguments in churn(step, patterns):
                getattr(twin, call)(*arguments)
                if call == "register_query":
                    served.ask(
                        cmd="addq",
                        query=arguments[0],
                        graph_file=str(RAW_DIR / "fraud_ring_patterns_v1.txt"),
                        graph_key=arguments[0],
                    )
                else:
                    served.ask(cmd="delq", query=arguments[0])
        if how == signal.SIGKILL:
            # Export by verb, then one more acknowledged commit the
            # export does not hold: a restart is as of the last export.
            assert served.ask(cmd="checkpoint")["checkpoint"]["num_streams"] == 2
            served.tick(ticks[BEFORE])
        served.stop(how)
    finally:
        served.close()

    served = Served(seed, directory, after)
    try:
        assert served.listening["restored"] is True
        assert served.matches() == twin.matches()
        whole = sorted(("appeared", s, q) for s, q in twin.matches())
        assert wire_events(served.ask(cmd="poll")) == whole
        for step in range(BEFORE, BEFORE + AFTER):
            tick = ticks[step % len(ticks)]
            assert served.tick(tick) == twin_tick(tick), step
            assert served.matches() == twin.matches(), step
        stats = served.ask(cmd="stats")["stats"]
        assert stats["num_queries"] == 2 and stats["num_streams"] == 2
        served.stop(signal.SIGTERM)
    finally:
        served.close()
    # The second run's drain replaced the export; it still opens.
    restored = load_monitor(directory)
    assert sorted(restored.query_ids()) == LIVE
    assert restored.matches() == twin.matches()
    for index in restored._indexes.values():
        index.check_integrity()
