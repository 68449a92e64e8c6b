"""The three entry depths a script can be driven through.

* ``inproc``  — :class:`repro.StreamMonitor` in the runner process;
* ``sharded`` — :class:`repro.ShardedMonitor` (worker processes behind
  the coordinator, which lives in the runner process);
* ``tcp``     — the real ``python -m repro serve --tcp`` CLI as a child
  process, driven over one blocking socket speaking the JSON protocol.

All three expose the same closed-loop surface: :meth:`start` builds the
system, registers every stream with its initial graph and reads the
first answer; :meth:`tick` sends one timestamp and returns the answer
(the full candidate pair set); :meth:`close` tears down and returns the
number of children that would not stop.  Shared-memory leaks are counted
around a whole run with :func:`segment_census` / :func:`sweep_leaked`.
Load is one client with one command in flight.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
from pathlib import Path
from typing import Any

from repro import ShardedMonitor, StreamMonitor
from repro.graph.io import write_graph_set
from repro.runtime import WorkerCrashed, WorkerDied
from repro.runtime.shm import live_segments
from repro.serve.protocol import change_to_dict

from .loadgen import Script, Tick
from .measure import NULL_TRACER, Tracer, is_alive

METHOD = "dsc"
DEPTH_LIMIT = 3
SRC_DIR = Path(__file__).resolve().parents[2] / "src"
_SOCKET_TIMEOUT = 120.0
#: Every segment the program creates starts with this (``make_prefix``).
#: ``ShardedMonitor.close()`` sweeps only its own, narrower prefix, so a
#: census under the wide one still sees what it forgot.
SEGMENT_PREFIX = "repro-"


def child_env() -> dict[str, str]:
    """This process's environment with the program's ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def segment_census() -> set[str]:
    """Names of the program's shared-memory segments alive right now."""
    return set(live_segments(SEGMENT_PREFIX))


def sweep_leaked(before: set[str]) -> int:
    """Count (and unlink) the segments that appeared since ``before``
    and outlived every system of the run — each one is a leak."""
    leaked = segment_census() - before
    for name in leaked:
        # Not ``cleanup_segments``: that also unregisters the name from
        # this process's resource tracker, which never knew a segment a
        # worker created and complains on stderr.
        (Path("/dev/shm") / name).unlink(missing_ok=True)
    return len(leaked)


class Depth:
    """Common surface; subclasses fill in the system-specific calls."""

    name = "depth"

    def __init__(self, script: Script, workdir: Path, tracer: Tracer = NULL_TRACER) -> None:
        self.script = script
        self.workdir = workdir
        self.tracer = tracer
        #: Operations refused, errored or dead-lettered so far.
        self.failed = 0
        #: Operations attempted so far (applies, churn calls, reads).
        self.attempted = 0

    def start(self) -> set:
        raise NotImplementedError

    def tick(self, tick: Tick) -> set:
        raise NotImplementedError

    def pids(self) -> list[int]:
        """Every process of the system under test."""
        raise NotImplementedError

    def stats(self) -> dict[str, Any]:
        """The system's own public statistics document."""
        raise NotImplementedError

    def close(self) -> int:
        raise NotImplementedError


class _MonitorDepth(Depth):
    """Shared tick loop of the two library-call depths."""

    apply_span = matches_span = ""
    monitor: Any

    def _make_monitor(self) -> Any:
        raise NotImplementedError

    def start(self) -> set:
        self.monitor = self._make_monitor()
        for stream_id, graph in self.script.initial.items():
            self.monitor.add_stream(stream_id, graph)
        return self.monitor.matches()

    def tick(self, tick: Tick) -> set:
        monitor, span = self.monitor, self.tracer.span
        for stream_id, batch in tick.batches:
            with span(self.apply_span):
                accepted = monitor.apply(stream_id, batch)
            if accepted is False:  # ShardedMonitor: dropped by backpressure
                self.failed += 1
        for item in tick.churn:
            if item[0] == "addq":
                with span("churn.register_query"):
                    monitor.register_query(item[1], item[2])
            else:
                with span("churn.deregister_query"):
                    monitor.deregister_query(item[1])
        with span(self.matches_span):
            answer = monitor.matches()
        self.attempted += len(tick.batches) + len(tick.churn) + 1
        return answer

    def stats(self) -> dict[str, Any]:
        return self.monitor.stats()


class InprocDepth(_MonitorDepth):
    name = "inproc"
    apply_span, matches_span = "core.apply", "core.matches"

    def _make_monitor(self) -> StreamMonitor:
        return StreamMonitor(self.script.queries, method=METHOD, depth_limit=DEPTH_LIMIT)

    def pids(self) -> list[int]:
        return [os.getpid()]

    def close(self) -> int:
        self.monitor.close()
        return 0


class ShardedDepth(_MonitorDepth):
    name = "sharded"
    apply_span, matches_span = "runtime.submit", "runtime.barrier"

    def start(self) -> set:
        before = segment_census()
        answer = super().start()
        if self.script.sizes.get("shm") and not segment_census() - before:
            # A monitor on shared memory whose segments the census cannot
            # see (renamed, moved): the leak check would pass blind.
            self.failed += 1
        return answer

    def _make_monitor(self) -> ShardedMonitor:
        sizes = self.script.sizes
        #: Only written when the traced run probes ``checkpoint()``.
        self.checkpoint_dir = self.workdir / f"ckpt-{id(self):x}"
        with self.tracer.span("runtime.spawn"):
            return ShardedMonitor(
                self.script.queries,
                method=METHOD,
                depth_limit=DEPTH_LIMIT,
                num_workers=sizes.get("workers", 2),
                shm=sizes.get("shm", False),
                checkpoint_dir=self.checkpoint_dir,
            )

    def tick(self, tick: Tick) -> set:
        try:
            return super().tick(tick)
        except (WorkerCrashed, WorkerDied):
            self.failed += 1
            raise

    def pids(self) -> list[int]:
        workers = [pid for pid in self.monitor.worker_pids().values() if pid]
        return [os.getpid()] + workers

    def close(self) -> int:
        workers = self.pids()[1:]
        self.monitor.close()
        return sum(1 for pid in workers if is_alive(pid))


class TcpDepth(Depth):
    name = "tcp"

    def __init__(self, script: Script, workdir: Path, tracer: Tracer = NULL_TRACER) -> None:
        super().__init__(script, workdir, tracer)
        self.server: subprocess.Popen | None = None
        self.sock: socket.socket | None = None
        self.answer: set = set()
        #: Wire accounting for the serve probes (bytes each way, and the
        #: raw lines when a tracer wants to replay them through the parser).
        self.bytes_out = 0
        self.bytes_in = 0
        self.keep_lines = tracer is not NULL_TRACER
        self.sent_lines: list[str] = []
        self.reply_docs: list[dict] = []
        self._worker_pids: list[int] = []

    # -- wire --------------------------------------------------------------
    def _roundtrip(self, doc: dict) -> dict:
        line = json.dumps(doc) + "\n"
        self.bytes_out += len(line)
        self._wire.write(line)
        self._wire.flush()
        while True:
            raw = self._wire.readline()
            if not raw:
                raise ConnectionError("server closed the connection")
            self.bytes_in += len(raw)
            reply = json.loads(raw)
            if "notice" not in reply:
                break
        self.attempted += 1
        if not reply.get("ok"):
            self.failed += 1
        if self.keep_lines:
            self.sent_lines.append(line)
            self.reply_docs.append(reply)
        return reply

    def _absorb(self, events: list[dict]) -> None:
        for event in events:
            pair = (event["stream"], event["query"])
            if event["kind"] == "appeared":
                self.answer.add(pair)
            else:
                self.answer.discard(pair)

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> set:
        script = self.script
        tag = f"{id(self):x}"
        queries_file = self.workdir / f"queries-{tag}.txt"
        initial_file = self.workdir / f"initial-{tag}.txt"
        write_graph_set(list(script.queries.values()), queries_file, names=list(script.queries))
        write_graph_set(list(script.initial.values()), initial_file, names=list(script.initial))
        with self.tracer.span("serve.spawn"):
            self.server = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--queries", str(queries_file),
                    "--method", METHOD,
                    "--depth", str(DEPTH_LIMIT),
                    "--workers", str(script.sizes.get("workers", 2)),
                    "--tcp", "127.0.0.1:0",
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
                cwd=self.workdir,
                env=child_env(),
            )
            assert self.server.stdout is not None
            listening = json.loads(self.server.stdout.readline() or "{}")
            if listening.get("notice") != "listening":
                raise RuntimeError(f"server did not come up: {listening!r}")
        self.sock = socket.create_connection(
            ("127.0.0.1", listening["port"]), timeout=_SOCKET_TIMEOUT
        )
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._wire = self.sock.makefile("rw", encoding="utf-8", newline="\n")
        hello = json.loads(self._wire.readline())
        if hello.get("notice") != "hello":
            raise RuntimeError(f"unexpected greeting: {hello!r}")
        for stream_id in script.initial:
            self._roundtrip(
                {
                    "cmd": "stream",
                    "stream": stream_id,
                    "graph_file": str(initial_file),
                    "graph_key": stream_id,
                }
            )
        self._absorb(self._roundtrip({"cmd": "poll"})["events"])
        workers = self._roundtrip({"cmd": "stats"})["stats"].get("workers", {})
        self._worker_pids = [w["pid"] for w in workers.values()]
        return set(self.answer)

    def tick(self, tick: Tick) -> set:
        span = self.tracer.span
        for stream_id, batch in tick.batches:
            if not batch:
                continue
            doc = {
                "cmd": "batch",
                "stream": stream_id,
                "changes": [change_to_dict(change) for change in batch],
            }
            with span("serve.batch_rtt"):
                self._roundtrip(doc)
        for item in tick.churn:
            if item[0] == "addq":
                doc = {
                    "cmd": "addq",
                    "query": item[1],
                    "vertices": [list(kv) for kv in item[2].vertex_items()],
                    "edges": [list(edge) for edge in item[2].edges()],
                }
            else:
                doc = {"cmd": "delq", "query": item[1]}
            with span("serve.churn_rtt"):
                self._roundtrip(doc)
        with span("serve.commit_rtt"):
            reply = self._roundtrip({"cmd": "commit"})
        self._absorb(reply.get("events", ()))
        if tick.global_read:
            with span("serve.matches_rtt"):
                pairs = self._roundtrip({"cmd": "matches"})["matches"]
            if {tuple(pair) for pair in pairs} != self.answer:
                self.failed += 1  # the ack-borne deltas drifted from the global read
        return set(self.answer)

    def pids(self) -> list[int]:
        assert self.server is not None
        return [self.server.pid] + self._worker_pids

    def stats(self) -> dict[str, Any]:
        return self._roundtrip({"cmd": "stats"})["stats"]

    def close(self) -> int:
        failures = 0
        if self.sock is not None:
            try:
                self._roundtrip({"cmd": "quit"})
            except (OSError, ValueError):
                failures += 1
            self._wire.close()
            self.sock.close()
        if self.server is not None:
            if self.server.poll() is None:
                self.server.send_signal(signal.SIGTERM)
            try:
                code = self.server.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.server.kill()
                code = self.server.wait(timeout=30)
            assert self.server.stdout is not None
            self.server.stdout.close()
            failures += code != 0
            failures += sum(1 for pid in self._worker_pids if is_alive(pid))
        return failures


DEPTHS = {cls.name: cls for cls in (InprocDepth, ShardedDepth, TcpDepth)}
