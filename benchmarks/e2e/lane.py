"""One system of the traced run, in a process of its own.

    python -m benchmarks.e2e.lane --workload W --seed N --ticks T
        --workdir DIR --lane NAME [--smoke]

``layers.py`` starts one of these per system and advances them in lock
step over a line protocol on stdin/stdout: ``{"chunk": k}`` runs chunk
``k`` of the script and answers ``{"ok": true}``; ``{"finish": true}``
tears the system down and answers with everything the lane recorded
(tick latencies, answer digests, spans, counts).  A process each,
because a lane's collector pauses grow with the heap it shares, and a
share that subtracts one lane's time from another's needs both to pay
for their own garbage only.

Lanes: ``inproc`` / ``sharded`` / ``tcp`` — that entry depth with spans
on; ``untraced`` — the workload's own depth with tracing off (the
reference for tracing overhead and answers); ``obs_off`` — the
in-process depth, tracing off, started by the parent with
``REPRO_OBS=0``; ``layers`` — ``graph``/``nnt`` alone (one ``NNTIndex``
per stream with a recording listener) feeding its NPV delta trace to a
fresh engine of each kind (``join`` alone).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any

from repro import NNTIndex, QuerySet, make_engine, obs
from repro.graph import apply_operation
from repro.join import ENGINES
from repro.serve.protocol import encode_reply, parse_json_line
from repro.serve.session import apply_batch_validated

from . import loadgen, oracle
from .depths import DEPTH_LIMIT, DEPTHS, METHOD, InprocDepth, TcpDepth
from .harness import Recording, answer_digest, candidate_ratio, drive
from .measure import NULL_TRACER, Tracer, cpu_seconds

#: Register/deregister probes per run (``join.register_query_ms`` is
#: their median).
CHURN_PROBES = 5
#: The engine table replays the first quarter of the chunks.
ENGINE_TABLE_CHUNKS = loadgen.TRACE_CHUNKS // 4
#: Chunk tag of spans outside the chunk loop (set-up, probes).
OUTSIDE = -1


class DepthLane:
    """An entry depth driven chunk by chunk."""

    def __init__(self, name: str, script: loadgen.Script, workdir: Path, tracer: Tracer) -> None:
        self.name = name
        self.script = script
        self.tracer = tracer
        self.recording = Recording()
        self.cpu_s = 0.0
        if name in DEPTHS:
            self.depth = DEPTHS[name](script, workdir, tracer)
        elif name == "obs_off":
            self.depth = InprocDepth(script, workdir)
        else:
            self.depth = DEPTHS[script.workload.depth](script, workdir)
        tracer.system, tracer.chunk = name, OUTSIDE
        self._closed = False
        with tracer.span("setup"):
            self.depth.start()

    def close(self) -> int:
        """Tear the system down (once); the number of children that
        would not stop."""
        if self._closed:
            return 0
        self._closed = True
        return self.depth.close()

    def run(self, window: list[loadgen.Tick], chunk: int) -> None:
        self.tracer.chunk = chunk
        pids = self.depth.pids()
        before = cpu_seconds(pids)
        drive(self.depth, window, self.recording, tracer=self.depth.tracer)
        self.cpu_s += cpu_seconds(pids) - before

    def finish(self) -> dict[str, Any]:
        script, depth, recording = self.script, self.depth, self.recording
        self.tracer.chunk = OUTSIDE
        out: dict[str, Any] = {
            "latencies": recording.latencies,
            "digests": recording.digests,
            "changes": recording.changes,
            "cpu_s": self.cpu_s,
            "candidate_ratio": candidate_ratio(script, recording),
        }
        if self.name == "inproc":  # truth at the sampled ticks, reported pairs verified too
            sampled = oracle.sample_ticks(len(recording.digests))
            out["verdict"] = oracle.check(script, recording.answers_at(sampled), full=True)
        if self.name == "sharded":
            out["runtime"] = self._runtime_extras()
        if isinstance(depth, TcpDepth) and self.name == "tcp":
            out["serve"] = self._serve_extras(depth)
        out["failed"] = depth.failed + self.close()
        out["attempted"] = depth.attempted
        return out

    def _runtime_extras(self) -> dict[str, Any]:
        monitor, stats = self.depth.monitor, self.depth.stats()
        load = [0] * monitor.num_workers
        for tick in self.script.ticks:
            for sid, batch in tick.batches:
                load[monitor.shard_of(sid)] += len(batch)
        with self.tracer.span("runtime.checkpoint"):
            monitor.checkpoint()
        merged = stats["merged_obs"]
        return {
            "bytes_pickled": _counter(merged, "runtime.bytes_pickled"),
            "ring_bytes": _counter(merged, "shm.ring_bytes"),
            "ring_overflow": _counter(merged, "shm.ring_overflow"),
            "dropped": stats["backpressure"]["dropped"],
            "spilled": stats["backpressure"]["spilled"],
            "recoveries": stats["recovery"]["recoveries"],
            "shard_skew": max(load) * len(load) / max(sum(load), 1),
            "checkpoint_bytes": sum(
                path.stat().st_size
                for path in self.depth.checkpoint_dir.rglob("*")
                if path.is_file()
            ),
        }

    def _serve_extras(self, tcp: TcpDepth) -> dict[str, Any]:
        """Refusals from the ``stats`` verb, and parse / encode /
        validate micro-costs over the lane's own wire."""
        serve_stats = tcp.stats()["serve"]
        start = time.perf_counter()
        for line in tcp.sent_lines:
            parse_json_line(line)
        parse_s = time.perf_counter() - start
        start = time.perf_counter()
        for reply in tcp.reply_docs:
            encode_reply(reply)
        encode_s = time.perf_counter() - start
        shadows = {sid: graph.copy() for sid, graph in self.script.initial.items()}
        start = time.perf_counter()
        for tick in self.script.ticks:
            for sid, batch in tick.batches:
                apply_batch_validated(shadows[sid], batch)
        validate_s = time.perf_counter() - start
        return {
            "refused": sum(v for k, v in serve_stats.items() if k.startswith("rejected_"))
            + serve_stats.get("shed", 0),
            "dead_lettered": serve_stats["dead_letters"],
            "parse_us_per_line": parse_s * 1e6 / max(len(tcp.sent_lines), 1),
            "encode_us_per_reply": encode_s * 1e6 / max(len(tcp.reply_docs), 1),
            "validate_us_per_change": validate_s * 1e6 / max(self.recording.changes, 1),
            "wire_bytes": tcp.bytes_out + tcp.bytes_in,
        }


class _DeltaRecorder:
    """``BatchNPVListener`` that logs one stream's NPV evolution."""

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def on_vertex_added(self, vertex: Any) -> None:
        self.events.append(("added", vertex))

    def on_vertex_removed(self, vertex: Any) -> None:
        self.events.append(("removed", vertex))

    def on_dimension_delta(self, vertex: Any, dim: Any, delta: int) -> None:
        self.events.append(("batch", {(vertex, dim): delta}))

    def on_batch_update(self, deltas: Any) -> None:
        # The index hands the flushed mapping over and starts a new one.
        self.events.append(("batch", deltas))

    def drain(self) -> list[tuple]:
        events, self.events = self.events, []
        return events


class _JoinProbe:
    """One fresh engine fed the recorded delta trace: ``join`` alone."""

    def __init__(self, engine_name: str, script: loadgen.Script, initial_npvs: dict) -> None:
        self.name = engine_name
        self.system = f"join:{engine_name}"
        self.digests: list[str] = []
        self.deltas_in = self.candidate_pairs = 0
        self.engine = make_engine(engine_name, QuerySet(script.queries, DEPTH_LIMIT))
        for sid, npvs in initial_npvs.items():
            self.engine.register_stream(sid, npvs)

    def replay(self, tick: loadgen.Tick, deltas: dict, npvs: dict, tracer: Tracer) -> None:
        span, engine = tracer.span, self.engine
        with span("join.replay"):
            with span("join.batch_update"):
                for sid, events in deltas.items():
                    for kind, payload in events:
                        if kind == "batch":
                            engine.batch_update(sid, payload)
                            self.deltas_in += len(payload)
                        elif kind == "added":
                            engine.on_vertex_added(sid, payload)
                        else:
                            engine.on_vertex_removed(sid, payload)
            for item in tick.churn:
                if item[0] == "addq":
                    engine.add_query(item[1], item[2], npvs)
                else:
                    engine.remove_query(item[1])
            with span("join.candidates"):
                answer = engine.candidates()
        self.candidate_pairs += len(answer)
        self.digests.append(answer_digest(answer))


class LayersLane:
    """``graph`` and ``nnt`` alone, then every engine alone on the NPV
    delta trace the NNT pass just produced (the configured engine on
    every chunk, the others on the first quarter)."""

    name = "layers"

    def __init__(self, script: loadgen.Script, tracer: Tracer) -> None:
        self.script = script
        self.tracer = tracer
        self.graphs = {sid: graph.copy() for sid, graph in script.initial.items()}
        tracer.system, tracer.chunk = self.name, OUTSIDE
        with tracer.span("nnt.build"):
            self.indexes = {
                sid: NNTIndex(graph, DEPTH_LIMIT) for sid, graph in script.initial.items()
            }
        self.recorders = {sid: _DeltaRecorder() for sid in self.indexes}
        for sid, index in self.indexes.items():
            index.add_listener(self.recorders[sid])
        self.built = {sid: dict(index.stats) for sid, index in self.indexes.items()}
        initial_npvs = self._npvs()
        self.joins = {name: _JoinProbe(name, script, initial_npvs) for name in ENGINES}

    def _npvs(self) -> dict:
        return {
            sid: {vertex: dict(npv) for vertex, npv in index.npvs.items()}
            for sid, index in self.indexes.items()
        }

    def close(self) -> int:
        return 0

    def run(self, window: list[loadgen.Tick], chunk: int) -> None:
        tracer, span = self.tracer, self.tracer.span
        tracer.system, tracer.chunk = self.name, chunk
        # Three passes over the window, not one alternating pass: inside
        # the monitor nothing runs between two NNT applies either.
        for tick in window:
            for sid, batch in tick.batches:
                with span("graph.apply"):
                    apply_operation(self.graphs[sid], batch)
        trace, churn_npvs = [], []
        for tick in window:
            for sid, batch in tick.batches:
                with span("nnt.apply"):
                    self.indexes[sid].apply(batch)
            trace.append({sid: rec.drain() for sid, rec in self.recorders.items()})
            # The NPVs a query registered at this tick starts from.
            churn_npvs.append(self._npvs() if tick.churn else {})
        for name, join in self.joins.items():
            if name == METHOD or chunk < ENGINE_TABLE_CHUNKS:
                tracer.system = join.system
                for tick, deltas, npvs in zip(window, trace, churn_npvs):
                    join.replay(tick, deltas, npvs, tracer)

    def finish(self) -> dict[str, Any]:
        tracer, span, configured = self.tracer, self.tracer.span, self.joins[METHOD]
        tracer.system, tracer.chunk = configured.system, OUTSIDE
        npvs = self._npvs()
        for _ in range(CHURN_PROBES):
            # A pattern no live query shares, so each probe founds (and
            # then retires) a real dominance group instead of a dedup hit.
            with span("join.register_query"):
                configured.engine.add_query("probe", self.script.probe_query, npvs)
            with span("join.deregister_query"):
                configured.engine.remove_query("probe")
        spliced = delivered = 0
        for sid, index in self.indexes.items():
            spliced += index.stats["tree_nodes_added"] - self.built[sid]["tree_nodes_added"]
            spliced += index.stats["tree_nodes_removed"] - self.built[sid]["tree_nodes_removed"]
            delivered += index.stats["deltas_delivered"] - self.built[sid]["deltas_delivered"]
        summary = obs.get_registry().summary()
        return {
            "failed": 0,
            "attempted": 0,
            "spliced": spliced,
            "delivered": delivered,
            "tree_nodes_live": sum(index.num_tree_nodes for index in self.indexes.values()),
            "vertices_live": sum(g.num_vertices for g in self.graphs.values()),
            "edges_live": sum(g.num_edges for g in self.graphs.values()),
            "join_digests": {name: join.digests for name, join in self.joins.items()},
            "deltas_in": configured.deltas_in,
            "candidate_pairs": configured.candidate_pairs,
            "dimensions": len(configured.engine.query_set.dimension_universe),
            "query_groups": configured.engine.query_set.num_groups,
            "dominance_checks": _counter(summary, f"join.{METHOD}.dominance_checks"),
        }


def _counter(summary: dict, name: str) -> float:
    entry = summary.get(name)
    return float(entry["value"]) if entry else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(loadgen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ticks", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--lane", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    script = loadgen.generate(args.workload, args.seed, 1.0, args.ticks, args.smoke)
    per_chunk = args.ticks // loadgen.TRACE_CHUNKS
    traced = args.lane in DEPTHS or args.lane == LayersLane.name
    tracer = Tracer() if traced else NULL_TRACER
    lane: DepthLane | LayersLane
    with tracer.collecting_gc():
        if args.lane == LayersLane.name:
            lane = LayersLane(script, tracer)
        else:
            lane = DepthLane(args.lane, script, args.workdir, tracer)
        try:
            print(json.dumps({"ready": True}), flush=True)
            for line in sys.stdin:
                command = json.loads(line)
                if "chunk" in command:
                    chunk = command["chunk"]
                    lane.run(script.ticks[chunk * per_chunk : (chunk + 1) * per_chunk], chunk)
                    print(json.dumps({"ok": True}), flush=True)
                else:
                    report = lane.finish()
                    report["spans"] = tracer.spans
                    print(json.dumps(report), flush=True)
                    return 0
            return 1  # the parent went away without asking for the report
        finally:
            lane.close()  # whatever happened, leave no worker or server behind


if __name__ == "__main__":
    sys.exit(main())
