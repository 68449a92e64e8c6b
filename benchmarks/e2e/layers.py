"""The traced run: per-layer metrics from public-API probes.

Every system replays the *same* first ``N`` ticks of the generated
script; ``N`` is a fixed count per workload and ``--seconds`` (about a
fifth of what the untraced run gets through), so exact counts repeat
bit-for-bit for a seed.  Isolation is by calling each layer's public
functions from the benchmark's own files and timing the calls (spans in
the program itself are ROADMAP item 5):

* ``graph``   — ``apply_operation`` on bare ``LabeledGraph`` mirrors;
* ``nnt``     — one ``NNTIndex`` per stream with a recording listener,
  which also captures the NPV delta trace;
* ``join``    — fresh ``make_engine`` instances fed that trace through
  ``register_stream`` / ``batch_update`` / ``candidates`` (all four
  engines over the first quarter of the ticks, ``dsc`` over all);
* ``core``    — ``StreamMonitor.apply`` / ``matches``;
* ``runtime`` — the script against ``ShardedMonitor``, minus ``core``;
* ``serve``   — the script over TCP, minus ``runtime``;
* ``obs``     — the in-process depth in a child with ``REPRO_OBS=0``.

Each system is a *lane*: a child process of its own (``lane.py``), all
alive at once and advanced in lock step, one *chunk* of ticks at a time
(``loadgen.TRACE_CHUNKS`` chunks).  This host's speed drifts by tens of
percent over half a minute, and a share that subtracts one system's time
from another's is only as good as the two are close in time; here they
are a second or two apart.  A share is the layer's seconds over the own
depth's seconds, both summed over the run; the same ratio per chunk is
kept in the detail record (``share_chunks``), so a reader can put an
interval around each share and tell a resolved difference from an
unresolved one (``report.py`` does).

Collector pauses are taken out of every span (``measure.Tracer``) and
reported as their own share, so

    nnt + join + core + gc + runtime + serve = 1

where ``nnt``/``join`` are the layers alone, ``core`` is the in-process
tick's collector-free time minus both, ``gc`` the collector inside the
in-process tick, ``runtime`` = sharded − in-process and ``serve`` = TCP −
sharded full tick time (the last two only where the workload goes
through them).  A *negative* ``runtime`` share means two workers in
parallel saved more than the coordinator hop cost.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from repro.join import ENGINES

from . import loadgen
from .depths import DEPTHS, METHOD, child_env, segment_census, sweep_leaked
from .harness import RESULTS_DIR, ROOT, end_to_end_metrics
from .lane import ENGINE_TABLE_CHUNKS
from .measure import Tracer, calibrate, percentile

LANES = ("untraced", *DEPTHS, "layers", "obs_off")


class _LaneProcess:
    """The parent's end of one lane's line protocol."""

    def __init__(self, name: str, script: loadgen.Script, workdir: Path) -> None:
        env = child_env()
        # One hash seed for every lane: set and dict iteration order, and
        # with it the order of the work, differ between processes
        # otherwise, and that alone moved NNT-alone against the same NNT
        # inside the monitor by ~5 % — ten times ``core.glue_s``.
        env["PYTHONHASHSEED"] = "0"
        env.pop("REPRO_OBS", None)  # the program default (on) ...
        if name == "obs_off":
            env["REPRO_OBS"] = "0"  # ... except in the lane that prices it
        command = [
            sys.executable, "-m", "benchmarks.e2e.lane",
            "--workload", script.workload.name, "--seed", str(script.seed),
            "--ticks", str(len(script.ticks)), "--workdir", str(workdir), "--lane", name,
        ] + (["--smoke"] if script.sizes != script.workload.sizes else [])
        self.name = name
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, text=True, stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        self.ask(None)  # wait for "ready": set-ups do not overlap

    def ask(self, command: dict | None) -> dict:
        assert self.process.stdin is not None and self.process.stdout is not None
        if command is not None:
            self.process.stdin.write(json.dumps(command) + "\n")
            self.process.stdin.flush()
        reply = self.process.stdout.readline()
        if not reply:
            raise RuntimeError(f"lane {self.name} died (exit {self.process.wait()})")
        return json.loads(reply)

    def stop(self) -> None:
        """End the lane whatever state it is in, and wait for it."""
        assert self.process.stdin is not None and self.process.stdout is not None
        self.process.stdin.close()  # a lane still listening tears down and exits
        try:
            self.process.wait(timeout=90)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


def measure_layers(script: loadgen.Script, workdir: Path) -> dict:
    """The ``--trace 1`` run of one workload."""
    spec = script.workload
    ticks = len(script.ticks)  # a fixed count (loadgen.trace_ticks), never a clock
    per_chunk = ticks // loadgen.TRACE_CHUNKS
    calib = [calibrate()]
    segments = segment_census()
    lanes: dict[str, _LaneProcess] = {}
    try:
        for name in LANES:
            lanes[name] = _LaneProcess(name, script, workdir)
        calib.append(calibrate())
        for chunk in range(loadgen.TRACE_CHUNKS):
            for lane in lanes.values():
                lane.ask({"chunk": chunk})
        calib.append(calibrate())
        reports = {name: lane.ask({"finish": True}) for name, lane in lanes.items()}
    finally:
        for lane in lanes.values():
            lane.stop()
    calib.append(calibrate())

    # ------------------------------------------------------------------
    # correctness: every lane and every engine answered every tick alike
    # ------------------------------------------------------------------
    reference = reports["untraced"]
    layers = reports["layers"]
    failed = sweep_leaked(segments) + (len(reference["digests"]) != ticks)
    attempted = 0
    for name, report in reports.items():
        failed += report["failed"]
        attempted += report["attempted"]
        if name != "layers":
            failed += report["digests"] != reference["digests"]
    quarter = ENGINE_TABLE_CHUNKS * per_chunk
    for name, digests in layers["join_digests"].items():
        failed += digests != reference["digests"][: ticks if name == METHOD else quarter]
    verdict = reports["inproc"]["verdict"]
    failed += verdict["missed"]

    tracer = Tracer()
    for report in reports.values():
        offset = len(tracer.spans)
        for span in report["spans"]:
            if span[3] is not None:
                span[3] += offset
            tracer.spans.append(span)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "trace.json").write_text(
        json.dumps({"workload": spec.name, "seed": script.seed, "spans": tracer.to_json()})
    )

    # ------------------------------------------------------------------
    # fold spans and counts into the per-layer metrics
    # ------------------------------------------------------------------
    total, gc_total = tracer.total, tracer.gc_total
    join_system = f"join:{METHOD}"
    through_runtime = spec.depth in ("sharded", "tcp")
    through_serve = spec.depth == "tcp"

    def parts(chunk: int | None) -> dict[str, float]:
        """Seconds per layer (of one chunk, or of the whole run)."""
        full = {
            name: total("tick", name, chunk) + gc_total("tick", name, chunk) for name in DEPTHS
        }
        gc_s = gc_total("tick", "inproc", chunk)
        nnt_s = total("nnt.apply", "layers", chunk)
        update_s = total("join.batch_update", join_system, chunk)
        join_s = update_s + total("join.candidates", join_system, chunk)
        return {
            "own": full[spec.depth],
            "nnt": nnt_s,
            "join": join_s,
            "core": full["inproc"] - gc_s - nnt_s - join_s,
            "gc": gc_s,
            "runtime": full["sharded"] - full["inproc"] if through_runtime else 0.0,
            "serve": full["tcp"] - full["sharded"] if through_serve else 0.0,
            "glue": total("core.apply", "inproc", chunk) - nnt_s - update_s,
        }

    layer_names = ("nnt", "join", "core", "gc", "runtime", "serve")
    whole = parts(None)
    share = {layer: whole[layer] / whole["own"] for layer in layer_names}
    chunks = [parts(chunk) for chunk in range(loadgen.TRACE_CHUNKS)]
    share_chunks = {
        layer: [chunk[layer] / chunk["own"] for chunk in chunks] for layer in layer_names
    }

    p50 = {name: percentile(reports[name]["latencies"], 50) * 1e3 for name in DEPTHS}
    changes = reference["changes"]
    own = reports[spec.depth]
    rates = [r["changes"] / sum(r["latencies"]) for r in (reference, own)]
    runtime, serve = reports["sharded"]["runtime"], reports["tcp"]["serve"]
    replay_s = {
        name: sum(tracer.durations("join.replay", f"join:{name}")[:quarter]) for name in ENGINES
    }

    def per_change(value: float) -> float:
        return value / max(changes, 1)

    def median_ms(name: str, system: str) -> float:
        spans = tracer.durations(name, system)
        return statistics.median(spans) * 1e3 if spans else 0.0

    # The end-to-end timings of the tracing-off reference: reported here,
    # not gated — see README, *Deviations*.
    timings = end_to_end_metrics(spec, reference["latencies"], changes, reference["cpu_s"])
    m: dict[str, tuple[float, str]] = {
        **{f"bench.{name}": value for name, value in timings.items()},
        "bench.calib_ms": (statistics.median(calib), "ms"),
        "bench.rep_spread": (max(rates) / min(rates), "ratio"),
        "bench.trace_overhead_ratio": (
            percentile(own["latencies"], 50) / percentile(reference["latencies"], 50), "ratio"
        ),
        "bench.gc_share_of_tick": (share["gc"], "ratio"),
        "bench.ticks": (ticks, "count"),
        "bench.candidate_ratio": (reference["candidate_ratio"], "ratio"),
        "bench.failed_share": (failed / max(attempted, 1), "ratio"),
        "graph.apply_us_per_change": (per_change(total("graph.apply", "layers")) * 1e6, "us"),
        "graph.vertices_live": (layers["vertices_live"], "count"),
        "graph.edges_live": (layers["edges_live"], "count"),
        "nnt.apply_s": (whole["nnt"], "s"),
        "nnt.us_per_change": (per_change(whole["nnt"]) * 1e6, "us"),
        "nnt.share_of_tick": (share["nnt"], "ratio"),
        "nnt.build_s": (total("nnt.build", "layers"), "s"),
        "nnt.tree_nodes_spliced": (layers["spliced"], "count"),
        "nnt.tree_nodes_per_change": (per_change(layers["spliced"]), "count"),
        "nnt.deltas_delivered": (layers["delivered"], "count"),
        "nnt.net_delta_ratio": (layers["delivered"] / max(layers["spliced"], 1), "ratio"),
        "nnt.tree_nodes_live": (layers["tree_nodes_live"], "count"),
        "join.batch_update_s": (total("join.batch_update", join_system), "s"),
        "join.candidates_s": (total("join.candidates", join_system), "s"),
        "join.share_of_tick": (share["join"], "ratio"),
        "join.deltas_in": (layers["deltas_in"], "count"),
        "join.polls": (len(layers["join_digests"][METHOD]), "count"),
        "join.dominance_checks": (layers["dominance_checks"], "count"),
        "join.candidate_pairs": (layers["candidate_pairs"], "count"),
        "join.dimensions": (layers["dimensions"], "count"),
        "join.query_groups": (layers["query_groups"], "count"),
        "join.register_query_ms": (median_ms("join.register_query", join_system), "ms"),
        "join.deregister_query_ms": (median_ms("join.deregister_query", join_system), "ms"),
        **{f"join.{name}.replay_s": (replay_s[name], "s") for name in ENGINES},
        "core.apply_s": (total("core.apply", "inproc"), "s"),
        "core.matches_s": (total("core.matches", "inproc"), "s"),
        "core.glue_s": (whole["glue"], "s"),
        "core.share_of_tick": (share["core"], "ratio"),
        "core.recall": (verdict["recall"], "ratio"),
        "core.fp_ratio": (verdict["fp_ratio"], "ratio"),
        "runtime.submit_s": (total("runtime.submit", "sharded"), "s"),
        "runtime.barrier_s": (total("runtime.barrier", "sharded"), "s"),
        "runtime.hop_ms_per_tick": (p50["sharded"] - p50["inproc"], "ms"),
        "runtime.share_of_tick": (share["runtime"], "ratio"),
        "runtime.bytes_pickled_per_change": (per_change(runtime["bytes_pickled"]), "B"),
        "runtime.ring_bytes_per_change": (per_change(runtime["ring_bytes"]), "B"),
        "runtime.ring_overflow": (runtime["ring_overflow"], "count"),
        "runtime.dropped": (runtime["dropped"], "count"),
        "runtime.spilled": (runtime["spilled"], "count"),
        "runtime.recoveries": (runtime["recoveries"], "count"),
        "runtime.shard_skew": (runtime["shard_skew"], "ratio"),
        "runtime.spawn_s": (total("runtime.spawn", "sharded"), "s"),
        "runtime.checkpoint_s": (total("runtime.checkpoint", "sharded"), "s"),
        "runtime.checkpoint_bytes": (runtime["checkpoint_bytes"], "B"),
        "serve.batch_rtt_ms": (median_ms("serve.batch_rtt", "tcp"), "ms"),
        "serve.commit_rtt_ms": (median_ms("serve.commit_rtt", "tcp"), "ms"),
        "serve.edge_ms_per_tick": (p50["tcp"] - p50["sharded"], "ms"),
        "serve.share_of_tick": (share["serve"], "ratio"),
        "serve.parse_us_per_line": (serve["parse_us_per_line"], "us"),
        "serve.encode_us_per_reply": (serve["encode_us_per_reply"], "us"),
        "serve.validate_us_per_change": (serve["validate_us_per_change"], "us"),
        "serve.wire_bytes_per_change": (per_change(serve["wire_bytes"]), "B"),
        "serve.refused": (serve["refused"], "count"),
        "serve.dead_lettered": (serve["dead_lettered"], "count"),
        "serve.spawn_s": (total("serve.spawn", "tcp"), "s"),
        "obs.enabled_cost_ratio": (
            sum(reports["inproc"]["latencies"]) / sum(reports["obs_off"]["latencies"]), "ratio"
        ),
    }
    return {
        "workload": spec.name,
        "depth": spec.depth,
        "seed": script.seed,
        "script_digest": script.digest(),
        "ticks": ticks,
        "changes": changes,
        "recall": verdict["recall"],
        "attempted": attempted,
        "failed": failed,
        "tick_p50_ms_by_depth": p50,
        "share_chunks": share_chunks,
        "glue_chunks_s": [chunk["glue"] for chunk in chunks],
        "metrics": m,
    }
