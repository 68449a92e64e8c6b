"""The whole benchmark in one command.

    PYTHONPATH=src python -m benchmarks.e2e [--seed N] [--trace] [--smoke]

Runs every workload ``REPS`` times, each repetition a fresh child
process (``run.py``), scheduled round-robin across workloads so every
workload samples several phases of a noisy host.  Metrics are computed
over the ticks pooled across a workload's repetitions and printed by
name with their unit; the answer digest must agree across repetitions;
any correctness failure makes the exit status non-zero.  ``--trace``
adds one traced child per workload (the per-layer metrics, spans
written to ``results/trace.json``); ``--sets 2`` repeats the whole
thing back to back and prints the A/A agreement; ``--spread 10`` adds
the driver's steadiness check (ten single runs, ten seeds).  The
committed baseline is ``--trace --sets 2 --spread 10 --out
benchmarks/e2e/results/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from . import loadgen
from .depths import child_env
from .harness import HERE, RESULTS_DIR, contract, end_to_end_metrics
from .measure import supported_tail

#: Repetitions per workload and measured seconds of each: the full run,
#: and the ``--smoke`` run.
REPS, REP_SECONDS = 5, 7.0
SMOKE_REPS, SMOKE_SECONDS = 1, 0.5


def run_child(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
              detail: Path) -> dict | None:
    """One ``run.py`` child; its detail record, or None if it failed."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--detail", str(detail),
    ] + (["--smoke"] if smoke else [])
    done = subprocess.run(command, env=child_env(), capture_output=True, text=True, timeout=900)
    if done.returncode != 0 or not detail.exists():
        sys.stderr.write(f"[{workload}] child failed ({done.returncode}):\n{done.stdout}{done.stderr}\n")
        return None
    return json.loads(detail.read_text())


def pool(spec: loadgen.Workload, reps: list[dict]) -> dict:
    """End-to-end metrics over the ticks pooled across repetitions."""
    latencies = [x for rep in reps for x in rep["latencies"]]
    failed = sum(rep["failed"] for rep in reps)
    attempted = sum(rep["attempted"] for rep in reps)
    # Same seed, same script: every repetition must have answered every
    # tick it reached exactly like the others.
    shortest = min(len(rep["digests"]) for rep in reps)
    agree = all(
        rep["digests"][:shortest] == reps[0]["digests"][:shortest]
        and rep["script_digest"] == reps[0]["script_digest"]
        for rep in reps
    )
    failed += 0 if agree else 1
    rates = [rep["metrics"]["changes_per_s"][0] for rep in reps]
    metrics = end_to_end_metrics(
        spec,
        latencies,
        changes=sum(rep["changes"] for rep in reps),
        cpu_s=sum(rep["cpu_s"] for rep in reps),
        setups=[x for rep in reps for x in rep["setups"]],
        rss_mb=[rep["metrics"]["peak_rss_mb"][0] for rep in reps],
    )
    metrics["candidate_ratio"] = (
        statistics.median(rep["metrics"]["candidate_ratio"][0] for rep in reps), "ratio"
    )
    metrics["failed_share"] = (failed / max(attempted, 1), "ratio")
    metrics["bench.rep_spread"] = (max(rates) / min(rates), "ratio")
    return {
        "samples": len(latencies),
        "supported_tail_pct": supported_tail(len(latencies)),
        "digests_agree": agree,
        "recall": min(rep["recall"] for rep in reps),
        "failed": failed,
        "attempted": attempted,
        "calib_ms": [round(x, 2) for rep in reps for x in rep["calib_ms"]],
        "metrics": metrics,
    }


def run_set(args: argparse.Namespace, workdir: Path, spans: dict) -> tuple[dict, bool]:
    """One complete set: R round-robin repetitions (+ a traced child)."""
    ok = True
    details: dict[str, list[dict]] = {name: [] for name in loadgen.WORKLOADS}
    for rep in range(args.reps):
        for name in loadgen.WORKLOADS:
            detail = run_child(
                name, args.seed, args.seconds, False, args.smoke,
                workdir / f"{name}-{rep}.json",
            )
            if detail is None:
                ok = False
            else:
                details[name].append(detail)
    result: dict = {"untraced": {}, "traced": {}}
    for name, reps in details.items():
        if not reps:
            continue
        pooled = pool(loadgen.WORKLOADS[name], reps)
        ok = ok and pooled["failed"] == 0 and pooled["recall"] == 1.0
        result["untraced"][name] = pooled
    if args.trace:
        seconds = args.seconds if args.smoke else float(contract()["run_seconds"])
        for name in loadgen.WORKLOADS:
            detail = run_child(
                name, args.seed, seconds, True, args.smoke, workdir / f"{name}-trace.json"
            )
            if detail is None:
                ok = False
                continue
            ok = ok and detail["failed"] == 0 and detail["recall"] == 1.0
            if name in result["untraced"]:  # R repetitions beat the traced run's two passes
                detail["metrics"]["bench.rep_spread"] = result["untraced"][name]["metrics"][
                    "bench.rep_spread"
                ]
            result["traced"][name] = detail
            trace_file = RESULTS_DIR / "trace.json"
            if trace_file.exists():
                spans[name] = json.loads(trace_file.read_text())["spans"]
    return result, ok


def run_spread(args: argparse.Namespace, workdir: Path) -> tuple[dict, bool]:
    """The driver's steadiness check: ``--spread`` single runs per
    workload at the contract's ``run_seconds``, each with another seed,
    round-robin; per metric the median and the interquartile distance as
    a share of it (``statistics.quantiles(values, n=4)``) — for the gated
    metrics and for the reported ones, whose spread is why they are not
    gated."""
    seconds = args.seconds if args.smoke else float(contract()["run_seconds"])
    values: dict[str, dict[str, list[float]]] = {name: {} for name in loadgen.WORKLOADS}
    ok = True
    for i in range(args.spread):
        for name in loadgen.WORKLOADS:
            detail = run_child(
                name, args.seed + 1 + i, seconds, False, args.smoke,
                workdir / f"{name}-s{i}.json",
            )
            if detail is None or detail["failed"] or detail["recall"] != 1.0:
                ok = False
                continue
            for metric, (value, _unit) in detail["metrics"].items():
                if metric != "failed_share":  # always 0 here: nothing to spread
                    values[name].setdefault(metric, []).append(value)
    summary: dict = {}
    for name, metrics in values.items():
        summary[name] = {}
        for metric, series in metrics.items():
            if len(series) < 2:
                continue
            quartiles = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            summary[name][metric] = {
                "median": median,
                "spread": (quartiles[2] - quartiles[0]) / median,
                "values": series,
            }
            print(f"# spread {name} {metric} median {median:.6g} "
                  f"iqr/median {summary[name][metric]['spread']:.3f} (n={len(series)})")
    return summary, ok


def print_set(result: dict) -> None:
    for kind in ("untraced", "traced"):
        for name, record in result[kind].items():
            if kind == "untraced":
                print(
                    f"# {name}: {record['samples']} pooled ticks "
                    f"(supports p{record['supported_tail_pct']}, reports "
                    f"p{loadgen.WORKLOADS[name].tail_pct}); digests agree: "
                    f"{record['digests_agree']}; recall {record['recall']}"
                )
            for metric, (value, unit) in record["metrics"].items():
                if kind == "traced" or not metric.startswith("bench."):
                    print(f"{name} {metric} {value:.6g} {unit}")


def print_agreement(sets: list[dict]) -> None:
    """A/A: relative difference of each end-to-end metric between the
    first two sets (exact counts must be identical)."""
    print("# A/A agreement (set 2 vs set 1)")
    first, second = sets[0], sets[1]
    gated = {m["name"] for m in contract()["end_to_end"]}
    for name in first["untraced"]:
        for metric, (a, _unit) in first["untraced"][name]["metrics"].items():
            b = second["untraced"][name]["metrics"][metric][0]
            change = f"{(b - a) / a:+.3f}" if a else "="
            kind = "gated" if metric in gated else "reported"
            print(f"{name} {metric} {a:.6g} -> {b:.6g} ({change}, {kind})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__)
    parser.add_argument("--seed", type=int, default=loadgen.DEFAULT_SEED)
    parser.add_argument("--trace", action="store_true", help="add the per-layer run")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, same code paths")
    parser.add_argument("--sets", type=int, default=1, help="complete sets, back to back")
    parser.add_argument(
        "--spread", type=int, default=0, metavar="N",
        help="also N single runs per workload, each with another seed (IQR/median)",
    )
    parser.add_argument("--out", default=str(RESULTS_DIR / "latest.json"))
    args = parser.parse_args(argv)
    args.reps, args.seconds = (SMOKE_REPS, SMOKE_SECONDS) if args.smoke else (REPS, REP_SECONDS)

    workdir = HERE / ".work" / f"suite-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    RESULTS_DIR.mkdir(exist_ok=True)
    spans: dict = {}
    sets, ok = [], True
    try:
        for _ in range(args.sets):
            result, set_ok = run_set(args, workdir, spans)
            print_set(result)
            sets.append(result)
            ok = ok and set_ok
        spread: dict = {}
        if args.spread:
            spread, spread_ok = run_spread(args, workdir)
            ok = ok and spread_ok
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len(sets) > 1:
        print_agreement(sets)
    if spans:
        (RESULTS_DIR / "trace.json").write_text(json.dumps(spans))
    Path(args.out).write_text(
        json.dumps(
            {
                "seed": args.seed,
                "reps": args.reps,
                "seconds": args.seconds,
                "smoke": args.smoke,
                "nproc": os.cpu_count(),
                "obs": os.environ.get("REPRO_OBS", "default (on)"),
                "tail_pct": {n: w.tail_pct for n, w in loadgen.WORKLOADS.items()},
                "sizes": {n: w.sizes for n, w in loadgen.WORKLOADS.items()},
                "sets": sets,
                "spread": spread,
            },
            indent=1,
        )
        + "\n"
    )
    print(f"# {'OK' if ok else 'FAILED'}; results in {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
