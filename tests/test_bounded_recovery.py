"""The coordinator's state of record is one current graph per stream
plus the live query set — not the edit history.

Pinned here: a batch a worker would die on is refused by ``apply()``
and never reaches one (the poison wedge); recovery re-sends the live
state, however long the streams have run; coordinator memory plateaus
on a stream that toggles edges forever; the folded graph equals a
reference graph after every step behind a two-slot inbox; a
rescale hands streams over from that graph without asking a worker for
it; and (slow lane) a served process's RSS stays flat over 50,000
commits.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import signal
import socket
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.monitor import StreamMonitor
from repro.graph import (
    EdgeChange,
    GraphChangeOperation,
    GraphError,
    LabeledGraph,
    apply_operation,
)
from repro.graph.io import read_graph_set
from repro.runtime import ShardedMonitor
from repro.serve.protocol import (
    AddStream,
    Commit,
    Edit,
    change_to_dict,
    parse_text_line,
)

RAW_DIR = Path(__file__).parent / "fixtures" / "scenarios" / "raw"

needs_shm_dir = pytest.mark.skipif(
    not Path("/dev/shm").is_dir(), reason="no /dev/shm for payload rings"
)


def fraud_ring_loop() -> tuple[dict, list[dict]]:
    """The fraud-ring scenario as ``(patterns, ticks)``: one
    ``{stream: batch}`` dict per commit of the fixture's script, then a
    closing tick that deletes every edge still live — so ``ticks`` can
    be replayed end to end any number of times, every pass starting
    from empty graphs."""
    patterns = dict(read_graph_set(RAW_DIR / "fraud_ring_patterns_v1.txt"))
    mirrors: dict[str, LabeledGraph] = {}
    staged: dict[str, list[EdgeChange]] = {}
    ticks: list[dict] = []
    for line in (RAW_DIR / "fraud_ring_events_v1.txt").read_text().splitlines():
        command = parse_text_line(line)
        if isinstance(command, AddStream):
            mirrors[command.stream_id] = LabeledGraph()
        elif isinstance(command, Edit):
            staged.setdefault(command.stream_id, []).append(command.change)
        elif isinstance(command, Commit):
            tick = {sid: GraphChangeOperation(changes) for sid, changes in staged.items()}
            for sid, batch in tick.items():
                apply_operation(mirrors[sid], batch)
            ticks.append(tick)
            staged = {}
    ticks.append(
        {
            sid: GraphChangeOperation(EdgeChange.delete(u, v) for u, v, _ in graph.edges())
            for sid, graph in mirrors.items()
        }
    )
    return patterns, ticks


def kill_all(sharded: ShardedMonitor) -> None:
    for pid in sharded.worker_pids().values():
        os.kill(pid, signal.SIGKILL)
    time.sleep(0.05)  # let the kernel reap, so liveness checks see it


EDGE_QUERY = LabeledGraph.from_vertices_and_edges([(0, "A"), (1, "B")], [(0, 1, "-")])


SIZES = ("num_vertices", "num_edges", "edges_inserted", "edges_deleted")


def worker_graph(sharded: ShardedMonitor, stream_id) -> dict:
    """What the owning worker reports about the graph *it* holds for a
    stream: its size and how many edge changes built it (an export is
    written by the coordinator, so it cannot tell the two apart)."""
    worker = sharded.stats()["workers"][sharded.shard_of(stream_id)]
    held = worker["monitor"]["streams"][stream_id]
    return {key: held[key] for key in SIZES}


def folded_graph(sharded: ShardedMonitor, stream_id, inserted: int, deleted: int = 0) -> dict:
    """The same four numbers from the coordinator's side: its graph of
    record, and the edge changes of the batches it accepted."""
    graph = sharded.graph(stream_id)
    return dict(zip(SIZES, (graph.num_vertices, graph.num_edges, inserted, deleted)))


# ----------------------------------------------------------------------
# the poison wedge: refused at apply(), never sent, never replayed
# ----------------------------------------------------------------------
class TestPoisonRefusedAtApply:
    def _monitor(self, tmp_path, **options) -> ShardedMonitor:
        sharded = ShardedMonitor(
            {"q": EDGE_QUERY},
            num_workers=1,
            **options,
        )
        sharded.add_stream("s")
        sharded.apply("s", EdgeChange.insert(1, 2, "-", "A", "B"))
        return sharded

    @pytest.mark.parametrize(
        "poison",
        [
            EdgeChange.insert(1, 2, "-", "A", "B"),
            EdgeChange.delete(1, 9),
            EdgeChange.insert(1, 9, "-"),
            GraphChangeOperation(
                [
                    EdgeChange.insert(2, 3, "-", "B", "A"),
                    EdgeChange.insert(3, 4, "-", "A", "B"),
                    EdgeChange.insert(1, 2, "-", "A", "B"),
                ]
            ),
        ],
        ids=["duplicate-insert", "missing-delete", "unlabeled-vertex", "third-change-bad"],
    )
    def test_refused_batch_never_reaches_a_worker(self, tmp_path, poison):
        with self._monitor(tmp_path) as sharded:
            before = sharded.graph("s").copy()
            with pytest.raises(GraphError):
                sharded.apply("s", poison)
            assert sharded.graph("s") == before  # nothing of it folded
            assert sharded.matches() == {("s", "q")}
            stats = sharded.stats()
            assert stats["backpressure"]["accepted_batches"] == 1
            assert sharded.recovery_log.recoveries == 0
            assert worker_graph(sharded, "s") == folded_graph(sharded, "s", inserted=1)
            # The stream is not wedged: it keeps taking good batches.
            sharded.apply("s", EdgeChange.insert(2, 3, "-", "B", "A"))
            assert sharded.matches() == {("s", "q")}
            assert sharded.stats()["backpressure"]["accepted_batches"] == 2
            assert worker_graph(sharded, "s") == folded_graph(sharded, "s", inserted=2)


# ----------------------------------------------------------------------
# (a) recovery is a function of the live state, not of the history
# ----------------------------------------------------------------------
def drive(monitors, ticks, count: int, start: int = 0) -> None:
    for index in range(start, start + count):
        for stream_id, batch in ticks[index % len(ticks)].items():
            for monitor in monitors:
                monitor.apply(stream_id, batch)


class TestHistoryIndependentRecovery:
    TICKS = 5000  # the plain case; the variants run a fifth of it

    def _pair(self, patterns, tmp_path, **options):
        queries = {key: patterns[key] for key in ("money-cycle", "mule-fan-in")}
        sharded = ShardedMonitor(queries, num_workers=2, **options)
        reference = StreamMonitor(queries)
        for monitor in (sharded, reference):
            monitor.add_stream("cards")
            monitor.add_stream("wires")
        return sharded, reference

    def _check_recovery(self, sharded, reference, ticks, done: int, churn: int = 0) -> None:
        kill_all(sharded)
        assert sorted(sharded.recover_dead()) == [0, 1]
        summary = sharded.recovery_log.summary()
        assert summary["recoveries"] == 2
        # Every stream once, plus the net query churn on each shard.
        assert summary["replayed_commands"] == 2 + churn * 2
        assert sharded.matches() == reference.matches()
        sharded.events(), reference.events()  # align both baselines
        for offset in range(50):
            drive((sharded, reference), ticks, 1, start=done + offset)
            assert sharded.events() == reference.events(), f"tick +{offset}"
        assert sharded.recovery_log.recoveries == 2

    def test_after_5000_ticks(self, tmp_path):
        patterns, ticks = fraud_ring_loop()
        sharded, reference = self._pair(patterns, tmp_path)
        with sharded:
            drive((sharded, reference), ticks, self.TICKS)
            self._check_recovery(sharded, reference, ticks, self.TICKS)

    def test_with_query_churn_in_the_history(self, tmp_path):
        patterns, ticks = fraud_ring_loop()
        sharded, reference = self._pair(patterns, tmp_path)
        with sharded:
            drive((sharded, reference), ticks, 400)
            for monitor in (sharded, reference):
                monitor.register_query("layering-chain", patterns["layering-chain"])
            drive((sharded, reference), ticks, 400, start=400)
            for monitor in (sharded, reference):
                monitor.deregister_query("mule-fan-in")
            drive((sharded, reference), ticks, 200, start=800)
            # One registered since birth, one birth query retired.
            self._check_recovery(sharded, reference, ticks, 1000, churn=2)

    @needs_shm_dir
    def test_with_payload_rings(self, tmp_path):
        patterns, ticks = fraud_ring_loop()
        sharded, reference = self._pair(patterns, tmp_path, shm=True)
        with sharded:
            drive((sharded, reference), ticks, 1000)
            self._check_recovery(sharded, reference, ticks, 1000)

    def test_kill_between_checkpoint_and_next_batch(self, tmp_path):
        patterns, ticks = fraud_ring_loop()
        sharded, reference = self._pair(patterns, tmp_path, checkpoint_dir=tmp_path / "ckpt")
        with sharded:
            drive((sharded, reference), ticks, 1000)
            sharded.checkpoint()
            self._check_recovery(sharded, reference, ticks, 1000)


# ----------------------------------------------------------------------
# (b) memory plateaus on a stream that never ends
# ----------------------------------------------------------------------
def tracked_objects_reachable(root: object) -> int:
    """Number of gc-tracked objects reachable from ``root``, not walking
    into code (modules, classes, functions) — whatever the object holds
    on to as *data*."""
    code = (types.ModuleType, type, types.FunctionType, types.BuiltinFunctionType)
    seen = {id(root)}
    stack = [root]
    tracked = 0
    while stack:
        current = stack.pop()
        tracked += gc.is_tracked(current)
        for referent in gc.get_referents(current):
            if id(referent) not in seen and not isinstance(referent, code):
                seen.add(id(referent))
                stack.append(referent)
    return tracked


def test_coordinator_memory_plateaus_on_an_edge_toggling_stream():
    toggles = [
        (EdgeChange.insert(i, i + 1, "-", "A", "B"), EdgeChange.delete(i, i + 1))
        for i in range(0, 40, 2)
    ]
    with ShardedMonitor({"q": EDGE_QUERY}, num_workers=2) as sharded:
        sharded.add_stream("s")

        def run(batches: int, start: int) -> int:
            for index in range(start, start + batches):
                insert, delete = toggles[(index // 2) % len(toggles)]
                sharded.apply("s", delete if index % 2 else insert)
            sharded.matches()  # barrier: nothing in flight
            gc.collect()
            return tracked_objects_reachable(sharded)

        after_1000 = run(1000, 0)
        after_5000 = run(4000, 1000)
    assert abs(after_5000 - after_1000) < 0.01 * after_1000, (after_1000, after_5000)


# ----------------------------------------------------------------------
# (c) the fold equals a reference graph after every step
# ----------------------------------------------------------------------
LABELS = ("A", "B")


def build_change(spec) -> EdgeChange:
    insert, (u, v), labelled = spec
    if not insert:
        return EdgeChange.delete(u, v)
    if labelled:
        return EdgeChange.insert(u, v, "-", LABELS[u % 2], LABELS[v % 2])
    return EdgeChange.insert(u, v, "-")  # valid only between existing vertices


random_changes = st.tuples(
    st.booleans(),
    st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=2, unique=True),
    st.booleans(),
).map(build_change)
random_updates = st.lists(
    st.one_of(
        random_changes,
        st.lists(random_changes, min_size=1, max_size=4).map(GraphChangeOperation),
    ),
    max_size=12,
)


def reference_apply(graph: LabeledGraph, update) -> LabeledGraph | None:
    """The graph after ``update``, the slow and obvious way — on a copy,
    deletions first, one primitive at a time — or None when any change
    of it is refused."""
    changes = [update] if isinstance(update, EdgeChange) else list(update)
    changes.sort(key=lambda change: change.op != "del")
    trial = graph.copy()
    try:
        for change in changes:
            if change.op == "del":
                trial.remove_edge(change.u, change.v)
                for vertex in (change.u, change.v):
                    if trial.degree(vertex) == 0:
                        trial.remove_vertex(vertex)
                continue
            for vertex, label in ((change.u, change.u_label), (change.v, change.v_label)):
                if not trial.has_vertex(vertex):
                    if label is None:
                        return None
                    trial.add_vertex(vertex, label)
            trial.add_edge(change.u, change.v, change.edge_label)
    except GraphError:
        return None
    return trial


def test_fold_equals_reference_after_every_step():
    stream_ids = itertools.count()
    with ShardedMonitor({"q": EDGE_QUERY}, num_workers=1, queue_capacity=2) as sharded:

        @settings(max_examples=40, deadline=None)
        @given(random_updates)
        def run(updates) -> None:
            stream_id = f"s{next(stream_ids)}"
            reference = LabeledGraph.from_vertices_and_edges(
                [(0, "A"), (1, "B")], [(0, 1, "-")]
            )
            sharded.add_stream(stream_id, reference)
            for update in updates:
                after = reference_apply(reference, update)
                if after is None:
                    with pytest.raises(GraphError):
                        sharded.apply(stream_id, update)
                else:
                    sharded.apply(stream_id, update)
                    reference = after
                assert sharded.graph(stream_id) == reference
            oracle = StreamMonitor({"q": EDGE_QUERY})
            oracle.add_stream(stream_id, reference)
            mine = {pair for pair in sharded.matches() if pair[0] == stream_id}
            assert mine == oracle.matches()
            sharded.remove_stream(stream_id)

        run()
        assert sharded.recovery_log.recoveries == 0


# ----------------------------------------------------------------------
# (d) rescale hands streams over from the coordinator's graphs
# ----------------------------------------------------------------------
def test_rescale_moves_streams_without_asking_a_worker_for_the_graph(monkeypatch):
    patterns, ticks = fraud_ring_loop()
    queries = {key: patterns[key] for key in ("money-cycle", "mule-fan-in")}
    streams = [f"{name}-{i}" for i in range(4) for name in ("cards", "wires")]
    with ShardedMonitor(queries, num_workers=2) as sharded:
        reference = StreamMonitor(queries)
        for monitor in (sharded, reference):
            for stream_id in streams:
                monitor.add_stream(stream_id)
        for index in range(150):  # x 8 streams, most ticks touch both: > 1,000 batches
            for stream_id in streams:
                batch = ticks[index % len(ticks)].get(stream_id.split("-")[0])
                if batch:
                    sharded.apply(stream_id, batch)
                    reference.apply(stream_id, batch)
        assert sharded.matches() == reference.matches()
        requests: list[str] = []
        original = sharded._request

        def counting(shard, kind, *extra):
            requests.append(kind)
            return original(shard, kind, *extra)

        monkeypatch.setattr(sharded, "_request", counting)
        moved = sharded.rescale(4)["moved_streams"] + sharded.rescale(2)["moved_streams"]
        assert moved >= 2
        assert requests == []  # not one worker round trip
        monkeypatch.undo()
        assert sharded.matches() == reference.matches()
        for stream_id in streams:
            assert sharded.graph(stream_id) == reference.graph(stream_id)
        assert sharded.recovery_log.recoveries == 0


# ----------------------------------------------------------------------
# slow lane: a served process's RSS is flat over 50,000 commits
# ----------------------------------------------------------------------
def rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmRSS for pid {pid}")


@pytest.mark.slow
@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
def test_serve_rss_plateau(tmp_path):
    patterns, ticks = fraud_ring_loop()
    lines = []
    for tick in ticks:
        frame = [
            json.dumps(
                {
                    "cmd": "batch",
                    "stream": stream_id,
                    "changes": [change_to_dict(change) for change in batch],
                }
            )
            for stream_id, batch in tick.items()
            if batch
        ]
        frame.append(json.dumps({"cmd": "commit"}))
        lines.append(("\n".join(frame) + "\n", len(frame)))
    source = Path(__file__).resolve().parents[1] / "src"
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--queries", str(RAW_DIR / "fraud_ring_patterns_v1.txt"),
            "--workers", "2",
            "--tcp", "127.0.0.1:0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(source)},
    )
    try:
        assert server.stdout is not None
        listening = json.loads(server.stdout.readline() or "{}")
        assert listening.get("notice") == "listening", listening
        with socket.create_connection(("127.0.0.1", listening["port"]), timeout=60) as sock:
            wire = sock.makefile("rw", encoding="utf-8", newline="\n")

            def exchange(text: str, replies: int) -> None:
                wire.write(text)
                wire.flush()
                while replies:
                    reply = json.loads(wire.readline())
                    if "notice" not in reply:
                        assert reply["ok"], reply
                        replies -= 1

            exchange('{"cmd": "stream", "stream": "cards"}\n', 1)
            exchange('{"cmd": "stream", "stream": "wires"}\n', 1)
            marks = {}
            for commit in range(1, 50_001):
                exchange(*lines[(commit - 1) % len(lines)])
                if commit in (10_000, 50_000):
                    marks[commit] = rss_mb(server.pid)
            exchange('{"cmd": "quit"}\n', 1)
    finally:
        if server.poll() is None:
            server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=60)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait(timeout=30)
        if server.stdout is not None:
            server.stdout.close()
    assert marks[50_000] - marks[10_000] <= 2.0, marks
