"""Regenerate ``README.md`` from ``BENCHMARK.json`` + ``results/baseline.json``.

    python3 benchmarks/e2e/report.py

The prose (definitions, predictions, deviations) lives here; every
number in the README is read from the committed baseline, so the tables
cannot drift from what was measured.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

GATED = {
    "setup_s": "the parent's spawn of a fresh child process → interpreter up, program "
    "imported → monitor or server constructed → every stream registered with its initial "
    "graph → first answer read (`setup_probe.py`; generating the inputs is taken out); "
    "median of 3-7 fresh children per run (server spawn included for `txn_serve`, worker "
    "spawn for `sparse_sharded_churn`)",
    "peak_rss_mb": "sum of `VmHWM` over the system-under-test processes (runner; or "
    "coordinator + workers; or server + workers) at the end of the measured window",
}

REPORTED = {
    "changes_per_s": ("1/s", "edge changes applied *and answered* ÷ time spent inside ticks"),
    "tick_p50_ms": ("ms", "median tick latency (send every batch of the timestamp, receive "
                    "the answer); closed loop, one client, one command in flight"),
    "tick_tail_ms": ("ms", "the workload's fixed tail percentile of tick latency (`tail` "
                     "column above): the highest of p90/p95/p99 that keeps ≥ 10 samples "
                     "beyond it in one `run_seconds` run"),
    "cpu_ms_per_change": ("ms", "user+sys CPU of every process of the system under test "
                          "(`/proc/<pid>/stat`) ÷ changes — separates *faster* from *more "
                          "cores busy*"),
    "candidate_ratio": ("ratio", "reported pairs ÷ (streams × queries × ticks), the paper's "
                        "Fig 14 effectiveness; exact per seed"),
    "failed_share": ("ratio", "operations refused, errored or dead-lettered, true pairs the "
                     "filter missed, leaked segments, children that would not stop ÷ "
                     "operations attempted; anything but 0 fails the run"),
}

LAYER_GROUPS = {
    "bench": "the harness itself. `changes_per_s`, `tick_p50_ms`, `tick_tail_ms`, "
    "`cpu_ms_per_change` are the end-to-end timings above over the traced run's "
    "tracing-off lane (reported, not gated); `calib_ms` is a fixed pure-Python spin "
    "before, between and after the phases of a run (flags a slow host phase, never "
    "used to normalise); `rep_spread` max÷min `changes_per_s` over repetitions; "
    "`trace_overhead_ratio` traced ÷ untraced tick median at the workload's own depth, "
    "same ticks, interleaved; `gc_share_of_tick` the collector's share of the own-depth "
    "tick (`gc.callbacks` inside the in-process lane); `ticks` the fixed tick count the "
    "traced run replays; `candidate_ratio` and `failed_share` as above",
    "graph": "`apply_operation` on bare `LabeledGraph` mirrors, and live sizes",
    "nnt": "one `NNTIndex` per stream with a recording listener; counts from `index.stats` "
    "(`tree_nodes_spliced` = added + removed, `net_delta_ratio` = net deltas delivered ÷ "
    "nodes spliced — useful ÷ attempted)",
    "join": "a fresh `make_engine(\"dsc\")` fed the NPV delta trace the NNT pass just "
    "produced (`batch_update_s`, `candidates_s`, counts, register/deregister medians of 5 "
    "probes with a pattern no query shares) and the engine table `join.<engine>.replay_s` "
    "over the first quarter of the ticks",
    "core": "`StreamMonitor.apply` / `matches` spans; `glue_s` = `core.apply_s` − "
    "`nnt.apply_s` − `join.batch_update_s`; `recall`/`fp_ratio` from the networkx oracle",
    "runtime": "the same ticks through `ShardedMonitor`: `submit_s` inside `apply`, "
    "`barrier_s` inside `matches`, `hop_ms_per_tick` = sharded − in-process tick median, "
    "counters from `stats()` / `merged_obs`, one `checkpoint()` after the last tick",
    "serve": "the same ticks over TCP: round-trip medians, `edge_ms_per_tick` = TCP − "
    "sharded tick median, `parse_json_line` / `encode_reply` / `apply_batch_validated` "
    "micro-costs over the lane's own wire lines, refusals and dead letters from the "
    "`stats` verb",
    "obs": "`enabled_cost_ratio`: time inside ticks of the in-process lane at the default "
    "`REPRO_OBS` ÷ that of an in-process lane started with `REPRO_OBS=0`, same ticks, "
    "interleaved",
}

PREDICTIONS = """\
Written before measuring (ISSUE 11); the *Measured* section says where they held.

- `nnt.us_per_change`, `nnt.tree_nodes_per_change` → `changes_per_s`, `tick_p50_ms`,
  `cpu_ms_per_change` on `dense_nnt` (≈ 0.9 of the tick) and `sparse_sharded_churn`; about ⅓
  of that effect on `txn_serve`; `nnt.build_s` → `setup_s` on `dense_nnt` and
  `proximity_join`; `nnt.tree_nodes_live` → `peak_rss_mb` on the in-process workloads.
- `join.batch_update_s` + `join.candidates_s` → `tick_p50_ms`, `changes_per_s` on
  `proximity_join` (predicted ≈ 0.35) and `txn_serve`; prediction *no change* on `dense_nnt`.
  `join.register_query_ms` → `tick_tail_ms` on `sparse_sharded_churn` (churn ticks are
  its tail).
- `runtime.hop_ms_per_tick`, `runtime.barrier_s` → `tick_p50_ms`, `tick_tail_ms` on
  `txn_serve` (predicted ≈ 0.44); `runtime.bytes_pickled_per_change`,
  `runtime.ring_overflow` → `changes_per_s`, `cpu_ms_per_change` on
  `sparse_sharded_churn`; no change on the two in-process workloads.
- `serve.edge_ms_per_tick` (parse + validate + encode + loopback round-trips) →
  `tick_p50_ms`, `changes_per_s` on `txn_serve` (predicted ≈ 0.22) only.
- `obs.enabled_cost_ratio` → all timing metrics, largest on `txn_serve` and
  `proximity_join` (many small spans and labelled counters per change).
- `bench.gc_share_of_tick` → all timing metrics wherever allocation churn is high
  (`nnt.tree_nodes_per_change`): fewer tree nodes spliced is fewer collections.
- Exact counts (`nnt.tree_nodes_spliced`, `nnt.deltas_delivered`, `join.dominance_checks`,
  `join.candidate_pairs`, `runtime.bytes_pickled_per_change`, `bench.candidate_ratio`)
  repeat bit-for-bit per seed: the traced run replays a fixed tick count, not a clock.
"""

DEVIATIONS = """\
- **Two gated end-to-end metrics, six reported ones.** ISSUE 11 listed eight end-to-end
  metrics and ruled that a timing that cannot be held to its bound is moved to the
  per-layer list as `bench.<name>` — reported, not gated — rather than have its bound
  widened or its value normalised. The driver's contract allows bounds up to 0.25, wants
  the spread over ten seeds (IQR ÷ median) within the bound, and asks for a third of it
  (0.083). The *raw* spread of the timings depends on the hour: four ten-seed sets
  measured the same day gave 0.16-0.25 (tails to 0.51), 0.05-0.25, 0.06-0.19 and, in the set
  committed here, {timing_low:.2f}-{timing_high:.2f} (table above). Both vCPUs of this
  sandbox share one physical core's worth of capacity (two busy spins run 2.5× slower
  each than one alone, and their slow-downs are *negatively* correlated), and neighbours
  take tens of percent of it for half a minute at a time. A whole 20 s run sits inside
  one such phase — its fastest ticks are as slow as its median ones — so no within-run
  statistic (median of windows, lower quantiles, best window) steadies it; all were
  tried on the recorded latencies. So `changes_per_s`, `tick_p50_ms`, `tick_tail_ms` and
  `cpu_ms_per_change` are printed by every run, pooled by the suite, and reported from
  the traced run as `bench.<name>`, but the gate is `setup_s` and `peak_rss_mb`
  (ISSUE 11's own bounds, 0.25 and 0.05). An earlier draft divided the timings by a
  memory-latency reference sampled between ticks; that made them steady and made them
  something other than milliseconds, and is gone. `failed_share` (always 0) and
  `candidate_ratio` (exact per seed, but it differs by seed by up to 0.37) cannot be
  gated under the contract either; failures still fail the run (`correct: false`, exit 1).
- **A speed claim therefore needs pairs, not the gate.** Compare two commits with
  alternating runs of the same seed (`choosing-metrics`, section 8) on the reported
  timings, or rest the claim on an exact count (`nnt.tree_nodes_spliced`,
  `join.dominance_checks`, `runtime.bytes_pickled_per_change`).
- **`BENCHMARK.json` has only the contract's keys**, so seed, repetitions, `tail_pct`
  and the final sizes are recorded here and in `results/baseline.json`, and the sizes and
  tail percentile are summarised in each workload's `why`.
- **The traced run is six processes in lock step, not one process in sequence.** Passes
  run one after another were seconds to a minute apart on a host that drifts by tens of
  percent in that time, and lanes sharing one heap paid for each other's garbage (a full
  collection walks every lane's index). The lanes share one `PYTHONHASHSEED`: with a
  random one each, iteration order alone moved NNT-alone against the same NNT inside the
  monitor by ~5 %. Collector pauses are taken out of every span and
  reported as `bench.gc_share_of_tick`, which ISSUE 11 did not list: without it a full
  collection (0.1-0.7 s) lands in whichever span trips the threshold and swamps
  `core.glue_s`. `REPRO_OBS=0` is priced in a lane of its own rather than in a separate
  sequential child.
- **`core.glue_s` cannot be resolved by subtraction here.** It is the difference of
  three lanes' times and about half a percent of `core.apply_s`; lane-to-lane noise is
  several percent per chunk. The table gives its interval; where that straddles zero
  the sign is unresolved, not negative.
- **Streams start at equilibrium.** The coin-flip streams are burnt in for 40 rounds
  before timestamp 0, so tick cost is stationary; the paper starts from the base graph.
- **`dense_nnt` is 6 streams × 12 vertices** (the 8-vertex query graphs inflated 1.5×)
  rather than 4 × 18: full garbage collections then hit ~20 % of ticks instead of ~40 %,
  which keeps the median off the cliff between the two modes.
- **Negative shares are real.** Shares partition the own-depth tick by depth difference;
  on `sparse_sharded_churn` two workers in parallel can save more than the coordinator
  hop costs, and then `runtime.share_of_tick` is negative and the in-process shares
  exceed 1 together.
- `docs/performance.md`, CI wiring, `.claude/skills/verify` and folding the seven
  `benchmarks/bench_*.py` ratio gates into this harness are outside this PR's allowed
  files — follow-up (ROADMAP item 1).
- **Bug noted for a later issue:** `repro.datasets.reality.generate_reality_stream` drops
  an edge flipped an odd number ≥ 3 of times inside one batch from the emitted changes but
  not from its `present` set, so long horizons emit a delete of a missing edge (seed 47,
  16 streams × 300 timestamps, stream 8, t = 105 → `GraphError`). `loadgen.py` nets flips
  by parity instead and validates every batch on a mirror graph.
"""


def median_interval(values: list[float]) -> tuple[float, float]:
    """A distribution-free interval for the median of ``values`` at 95 %
    confidence or better: the k-th smallest and k-th largest, k the
    largest rank with a two-sided binomial tail of at most 0.05 (the 3rd
    and 10th of 12)."""
    n = len(values)
    k = 0
    while 2 * sum(math.comb(n, i) for i in range(k + 1)) / 2**n <= 0.05:
        k += 1
    ranked = sorted(values)
    return ranked[max(k - 1, 0)], ranked[n - max(k, 1)]


def resolve(differences: list[float]) -> int:
    """+1 / -1 when the interval of the per-chunk differences lies wholly
    above / below zero, 0 when it straddles it (unresolved)."""
    low, high = median_interval(differences)
    return 1 if low > 0 else -1 if high < 0 else 0


def verdict(sets: list[dict], workload: str, difference) -> int:
    """Judge the sign of ``difference(per-chunk shares)`` on every traced
    set: +1 / -1 only when all of them resolve it the same way, else 0."""
    signs = set()
    for traced in sets:
        shares = traced[workload]["share_chunks"]
        chunks = range(len(shares["nnt"]))
        signs.add(resolve([difference({k: v[c] for k, v in shares.items()}) for c in chunks]))
    return signs.pop() if len(signs) == 1 else 0


CLAIM = {1: "**confirmed**", -1: "**corrected**", 0: "**unresolved**"}
SIGN = {1: "resolved positive", -1: "resolved negative", 0: "unresolved"}


def fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 10:
        return f"{value:.1f}"
    if abs(value) >= 0.1:
        return f"{value:.3f}"
    return f"{value:.3g}"


def table(header: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines) + "\n"


def render(contract: dict, baseline: dict) -> str:
    workloads = [w["name"] for w in contract["workloads"]]
    first, second = baseline["sets"][0], baseline["sets"][1]
    traced_sets = [first["traced"], second["traced"]]
    traced = first["traced"]
    spread = baseline["spread"]
    gated = [m["name"] for m in contract["end_to_end"]]
    out: list[str] = []
    add = out.append

    add("# `benchmarks/e2e` — the end-to-end, layer-attributed benchmark\n")
    add("*Generated by `python3 benchmarks/e2e/report.py` from `BENCHMARK.json` and "
        "`results/baseline.json`; edit the generator, not this file.*\n")
    add("One harness drives a change batch the whole way (TCP frame → admission → ring/queue "
        "→ worker → NNT splice → NPV delta → dominance join → answer → reply), reports what "
        "a user sees, checks every answer against an independent oracle, and — in a "
        "separate traced run — says which layer the time went to. The program is driven "
        "only through public entry points (`StreamMonitor`, `ShardedMonitor`, the real "
        "`python -m repro serve --tcp` CLI over one blocking socket); `REPRO_OBS` is left "
        f"at the program default (`{baseline['obs']}`). Every figure is raw: nothing is "
        "scaled by a host-speed reference.\n")

    add("## Run it\n")
    add("```bash\n"
        "# one measured run of one workload (the BENCHMARK.json command; last line = result)\n"
        "python3 benchmarks/e2e/run.py --workload dense_nnt --seed 1 --seconds 20 --trace 0\n"
        "python3 benchmarks/e2e/run.py --workload dense_nnt --seed 1 --seconds 20 --trace 1\n"
        "# everything: 5 repetitions x 7 s per workload, fresh child each, round-robin\n"
        "PYTHONPATH=src python -m benchmarks.e2e [--seed N] [--trace] [--smoke]\n"
        "# the committed baseline (about 40 minutes)\n"
        "PYTHONPATH=src python -m benchmarks.e2e --trace --sets 2 --spread 10 \\\n"
        "    --out benchmarks/e2e/results/baseline.json && python3 benchmarks/e2e/report.py\n"
        "# harness self-test (not collected by tier-1)\n"
        "PYTHONPATH=src python -m pytest benchmarks/e2e -q\n"
        "```\n")
    add("Exit status is non-zero on any correctness failure: a true pair the filter missed "
        "(`core.recall < 1`), a refused / non-`ok` / dead-lettered operation, a "
        "`WorkerCrashed`, an answer digest that differs between repetitions, depths or "
        "engines, a shared-memory segment that appeared during the run and outlived it "
        "(`/dev/shm` census before and after, under the prefix `close()` does not sweep), "
        "or a server/worker child that would not stop. In a directory without `src/` the "
        "command fails without printing a result.\n")
    add("No process outlives the command. `run.py` measures in a child of itself and stays "
        "behind as a *subreaper* (`reaper.py`, `prctl(PR_SET_CHILD_SUBREAPER)`): every "
        "orphan below it is re-parented to it, and it prints the result only after the last "
        "one has ended. The standing case is the stdlib shared-memory `resource_tracker`, "
        "which whoever first touches a segment spawns (the coordinator of "
        "`ShardedMonitor(shm=True)`, so the runner) and which ends only *after* that "
        "process has gone; measured in the command itself it was still there when the exit "
        "status was read. A descendant that will not end within 10 s is killed, and it and "
        "any segment it left count as failed operations.\n")

    add("## Workloads\n")
    add(f"All `method=\"dsc\"`, NNT depth 3, default seed {baseline['seed']}, "
        f"{baseline['reps']} repetitions × {baseline['seconds']:g} s in the suite, "
        f"`run_seconds` = {contract['run_seconds']} in the driver; `nproc` = "
        f"{baseline['nproc']}. Load is closed-loop: one client, one command in flight. A "
        "*tick* is one timestamp: send every batch, then receive the answer.\n")
    rows = []
    for w in contract["workloads"]:
        sizes = ", ".join(f"{k}={v}" for k, v in baseline["sizes"][w["name"]].items())
        rows.append([f"`{w['name']}`", f"p{baseline['tail_pct'][w['name']]}", sizes, w["why"]])
    add(table(["name", "tail", "sizes", "why"], rows))
    add("Inputs come from `loadgen.py` alone (it does not call `repro.datasets`): every "
        "script is a pure function of `--seed`, each batch is replayed on a mirror graph "
        "at generation time, and the script digest is pinned in `test_harness.py`.\n")

    add("## End-to-end metrics\n")
    add("**Gated** (`BENCHMARK.json` `end_to_end`; a later change is rejected when its "
        "median is worse than its parent's by more than the bound):\n")
    rows = []
    for m in contract["end_to_end"]:
        rows.append([f"`{m['name']}`", m["unit"], m["better"], f"{m['bound']:g}",
                     GATED[m["name"]]])
    add(table(["name", "unit", "better", "bound", "definition"], rows))
    add("**Reported** (printed by every run and pooled by the suite; the four timings are "
        "also `bench.<name>` in the traced run — see *Deviations* for why they carry no "
        "bound on this host):\n")
    rows = [[f"`{name}`", unit, text] for name, (unit, text) in REPORTED.items()]
    add(table(["name", "unit", "definition"], rows))
    add("The suite prints, with each workload's pooled sample count, the highest percentile "
        "that has ≥ 10 samples beyond it.\n")

    add("## Per-layer metrics (traced run, not gated)\n")
    add("Layers are the hot-path packages. The traced run replays a fixed tick count "
        "through six *lanes* — the workload's own depth with tracing off, the three depths "
        "with spans on, the layer probes, an in-process depth with `REPRO_OBS=0` — each a "
        "process of its own (`lane.py`), all alive at once and advanced in lock step, "
        f"{len(traced[workloads[0]]['share_chunks']['nnt'])} chunks of ticks, so that every "
        "layer is timed within a second or two of every other one. Spans `{name, start, "
        "end, parent, rep, gc_s}` are kept in memory and written to `results/trace.json` (a "
        "layer's self time is its span minus its child spans; `gc_s` is the collector time "
        "inside the span, taken out of every duration below). `share_of_tick` partitions "
        "the own-depth tick: `nnt` and `join` alone, `core` = in-process tick − collector − "
        "both, `runtime` = sharded − in-process, `serve` = TCP − sharded (the last two only "
        "where the workload goes through them); with `bench.gc_share_of_tick` the six sum "
        "to 1.\n")
    for group, text in LAYER_GROUPS.items():
        names = ", ".join(
            f"`{m['name']}`" for m in contract["per_layer"] if m["name"].startswith(group + ".")
        )
        add(f"- **{group}** — {text}.  \n  {names}\n")

    add("## Which layer metric should move which end-to-end metric\n")
    add(PREDICTIONS)

    add("## Measured: layer shares of the own-depth tick\n")
    add("Each cell is the share over the whole traced run and, in brackets, a 96 % "
        "distribution-free interval for the median of the per-chunk shares (the 3rd and "
        "10th of the 12 ordered chunk values). A predicted inequality is *confirmed* or "
        "*corrected* only when the interval of the per-chunk differences excludes zero in "
        "both traced sets; otherwise it is *unresolved*.\n")
    layers = ("nnt", "join", "core", "gc", "runtime", "serve")
    share_metric = {layer: f"{layer}.share_of_tick" for layer in layers}
    share_metric["gc"] = "bench.gc_share_of_tick"

    def cell(value: float, chunks: list[float]) -> str:
        low, high = median_interval(chunks)
        return f"{value:+.3f} [{low:+.2f}, {high:+.2f}]"

    rows = []
    for name in workloads:
        record = traced[name]
        m = record["metrics"]
        values = {layer: m[share_metric[layer]][0] for layer in layers}
        rows.append(
            [f"`{name}`", record["depth"], str(record["ticks"])]
            + [cell(values[layer], record["share_chunks"][layer]) if values[layer] else "0"
               for layer in layers]
            + [f"{sum(values.values()):.3f}",
               f"{m['core.glue_s'][0]:+.3f}",
               "[{:+.3f}, {:+.3f}]".format(*median_interval(record["glue_chunks_s"])),
               f"{m['bench.trace_overhead_ratio'][0]:.3f}",
               f"{m['obs.enabled_cost_ratio'][0]:.2f}"]
        )
    add(table(["workload", "depth", "ticks", *layers, "sum", "core.glue_s", "glue s per chunk",
               "trace overhead", "obs on÷off"], rows))
    dense, prox, txn, churn = (traced[n]["metrics"] for n in workloads)
    nnt_leads = CLAIM[verdict(traced_sets, "dense_nnt", lambda s: s["nnt"] - max(
        s["join"], s["core"], s["runtime"], s["serve"]))]
    join_second = CLAIM[verdict(traced_sets, "proximity_join", lambda s: s["join"] - s["core"])]
    join_vs_prediction = SIGN[verdict(traced_sets, "proximity_join", lambda s: s["join"] - 0.35)]
    hop_heavy = CLAIM[verdict(
        traced_sets, "txn_serve", lambda s: s["runtime"] + s["serve"] - 0.5)]
    hop_sign = SIGN[verdict(traced_sets, "sparse_sharded_churn", lambda s: s["runtime"])]
    glue_signs = {}
    for name in workloads:
        signs = {resolve(t[name]["glue_chunks_s"]) for t in traced_sets}
        glue_signs[name] = SIGN[signs.pop() if len(signs) == 1 else 0]
    add(f"- `dense_nnt`, *`nnt` is the dominant layer*: {nnt_leads} — `nnt` "
        f"{dense['nnt.share_of_tick'][0]:.2f}, `join` {dense['join.share_of_tick'][0]:.2f}, "
        f"the collector {dense['bench.gc_share_of_tick'][0]:.2f}.\n"
        f"- `proximity_join`, *`join` is the largest non-NNT layer share*: {join_second} — "
        f"`join` {prox['join.share_of_tick'][0]:.2f} against `core` "
        f"{prox['core.share_of_tick'][0]:.2f}; `join` − 0.35 (the predicted share) is "
        f"{join_vs_prediction} (`nnt` {prox['nnt.share_of_tick'][0]:.2f}, the collector "
        f"{prox['bench.gc_share_of_tick'][0]:.2f}: with ~3 net flips per stream on "
        f"97-device graphs the NNT splice and the garbage it makes are most of the tick). "
        f"`join.matrix.replay_s` ÷ `join.dsc.replay_s` = "
        f"{prox['join.matrix.replay_s'][0] / prox['join.dsc.replay_s'][0]:.1f} here.\n"
        f"- `txn_serve`, *`runtime` + `serve` > 0.5*: {hop_heavy} — `runtime` "
        f"{txn['runtime.share_of_tick'][0]:.2f}, `serve` {txn['serve.share_of_tick'][0]:.2f}; "
        f"of the compute, `join` ({txn['join.share_of_tick'][0]:.2f}: `candidates()` walks "
        f"all 96 pairs per commit) outweighs `nnt` ({txn['nnt.share_of_tick'][0]:.2f}). "
        f"Observability costs {txn['obs.enabled_cost_ratio'][0]:.1f}× in-process on this "
        f"workload.\n"
        f"- `sparse_sharded_churn`, sign of the `runtime` share: {hop_sign}, "
        f"{churn['runtime.share_of_tick'][0]:+.2f} (negative when two busy workers save more "
        f"than the hop costs); `runtime.ring_bytes_per_change` "
        f"{churn['runtime.ring_bytes_per_change'][0]:.1f} B against "
        f"{churn['runtime.bytes_pickled_per_change'][0]:.1f} B still pickled.\n"
        "- `core.glue_s` ≥ 0: "
        + ", ".join(f"`{name}` {sign}" for name, sign in glue_signs.items())
        + " (see *Deviations*).\n")

    add("## Measured: engine replay table (first quarter of the traced ticks, same trace)\n")
    rows = []
    for name in workloads:
        m = traced[name]["metrics"]
        rows.append([f"`{name}`"] + [fmt(m[f"join.{e}.replay_s"][0])
                                    for e in ("nl", "dsc", "skyline", "matrix")]
                    + [str(int(m["join.dimensions"][0])), str(int(m["join.query_groups"][0]))])
    add(table(["workload", "nl s", "dsc s", "skyline s", "matrix s", "dimensions",
               "query groups"], rows))
    add("Identical candidate sets are asserted tick by tick across all four engines and "
        "all three depths.\n")

    add("## Measured: two A/A sets of the same code, same seed\n")
    rows = []
    for name in workloads:
        for metric in list(GATED) + list(REPORTED):
            a = first["untraced"][name]["metrics"][metric][0]
            b = second["untraced"][name]["metrics"][metric][0]
            change = f"{(b - a) / a:+.3f}" if a else "="
            rows.append([f"`{name}`", f"`{metric}`", "gated" if metric in gated else "reported",
                         fmt(a), fmt(b), change])
    add(table(["workload", "metric", "", "set 1", "set 2", "(set 2 − set 1) ÷ set 1"], rows))
    exact = ("nnt.tree_nodes_spliced", "nnt.deltas_delivered", "join.dominance_checks",
             "join.candidate_pairs", "runtime.bytes_pickled_per_change", "bench.candidate_ratio")
    same = all(
        first["traced"][n]["metrics"][k][0] == second["traced"][n]["metrics"][k][0]
        for n in workloads for k in exact
    )
    add(f"Exact counts ({', '.join(f'`{k}`' for k in exact)}) identical across the two "
        f"traced sets: **{same}**.\n")

    add("## Measured: spread over ten seeds (what justified each bound, and each missing one)\n")
    add("Ten single runs per workload at `run_seconds`, each with another seed, round-robin; "
        "the figure is the interquartile distance of the ten values as a share of their "
        "median (`statistics.quantiles(values, n=4)`), the driver's own test. A gated "
        "metric has to stay within its bound, and should stay within a third of it.\n")
    columns = gated + [name for name in REPORTED if name != "failed_share"]
    rows = []
    for name in workloads:
        rows.append([f"`{name}`"] + [f"{spread[name][metric]['spread']:.3f}" for metric in columns])
    add(table(["workload"] + [f"`{m}`" + (" (gated)" if m in gated else "") for m in columns],
              rows))

    add("## Deviations from ISSUE 11, and notes for follow-ups\n")
    timing_spreads = [
        spread[name][metric]["spread"]
        for name in workloads
        for metric in ("changes_per_s", "tick_p50_ms", "tick_tail_ms", "cpu_ms_per_change")
    ]
    add(DEVIATIONS.format(timing_low=min(timing_spreads), timing_high=max(timing_spreads)))
    return "\n".join(out)


def main() -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    baseline = json.loads((HERE / "results" / "baseline.json").read_text())
    (HERE / "README.md").write_text(render(contract, baseline))
    return 0


if __name__ == "__main__":
    sys.exit(main())
