"""Alternating pairs of two checkouts on one workload; one ``BENCH_e2e.json`` row.

    python benchmarks/pair.py <rev-or-dir-a> <rev-or-dir-b> --workload W --pairs N [--seconds S] [--seed N] [--trace]

Each side is a directory, used as it is, or anything ``git archive``
takes (a commit, a tag, the ``git write-tree`` of the index), exported
to a temporary directory — committed files only, so no ``__pycache__``,
which a directory side must not have either.  Every run is the
``BENCHMARK.json`` command of this checkout, untraced, started inside
the side's directory with ``PYTHONDONTWRITEBYTECODE=1``; pair ``i``
runs ``a`` first when ``i`` is even and ``b`` first when it is odd.
``--seed`` goes to the command as its workload seed (the command's own
default when absent), so a claim can be run again on a seed not used
while the change was written.

Printed and appended to ``BENCH_e2e.json`` at the repo root: each side
as given plus the id of its ``src`` tree (``git rev-parse <commit>:src``
finds the commit again, also when the side was an unreachable
``write-tree``), per end-to-end metric and side the median, the quartiles and every run;
per metric the pairs each side won (a tie counts for neither); the seed;
per side the operations attempted, ``failed`` and the ticks each run
reached inside its window (read from the command's ``--detail`` record:
``peak_rss_mb`` on the in-process workloads is a base plus a slope times
ticks reached, so a memory reading means little without them).  The
per-tick timings each run prints as metric lines (``tick_p50_ms``,
``tick_tail_ms``, ``changes_per_s``, ``cpu_ms_per_change``) get the same
median, quartiles and wins, under ``info``: information only, never a
gate, their direction taken from the ``bench.*`` entries of ``per_layer``.  A run
that prints no result object aborts the comparison, and no row is written.

``--trace`` adds, after the pairs, one run per side of the same command
with ``--trace 1`` at the same seed — a fixed tick count, so what the
program counts repeats exactly — and prints, side by side, every
``per_layer`` metric whose unit is ``count`` plus ``bench.candidate_ratio``
and ``core.recall``, each marked identical or different.  The table goes
into the row, and any difference makes the exit status non-zero: two
sides that should do the same work did not.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRAJECTORY = ROOT / "BENCH_e2e.json"


def checkout(side: str, scratch: Path, name: str) -> Path:
    """The directory one side runs in."""
    if Path(side).is_dir():
        directory = Path(side).resolve()
        stale = next(directory.rglob("__pycache__"), None)
        if stale is not None:
            raise SystemExit(f"{side}: not __pycache__-free ({stale})")
        return directory
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", side],
        stdout=subprocess.PIPE,
        check=True,
    )
    directory = scratch / name
    # ``filter=`` came with 3.10.12 / 3.11.4; the archive is git's own.
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(directory, **safe)
    return directory


def src_tree(side: str) -> str | None:
    """The object id of a revision side's ``src`` tree — the program the
    frozen harness drives — or ``None`` for a directory side.  It is what
    ties a row to a commit: ``git rev-parse <commit>:src`` prints the same
    id, whether the side was given as a commit or as a ``git write-tree``."""
    if Path(side).is_dir():
        return None
    found = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{side}:src"],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    return found.stdout.strip()


#: Compared by ``--trace`` beside the ``count`` metrics: ratios of counts.
TRACED_RATIOS = ("bench.candidate_ratio", "core.recall")
#: Paired beside the gated metrics, read from each run's printed metric lines.
TICK_METRICS = ("tick_p50_ms", "tick_tail_ms", "changes_per_s", "cpu_ms_per_change")


def run_once(command: list[str], directory: Path, detail: Path) -> dict:
    """One run's result object (the last stdout line), plus its exit status,
    its printed :data:`TICK_METRICS` (``printed``) and, from the ``--detail``
    record it wrote, its seed and ticks reached."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [*command, "--detail", str(detail)],
        cwd=directory, env=env, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        outcome = json.loads(lines[-1])
        record = json.loads(detail.read_text())
    except (IndexError, ValueError, OSError):
        raise SystemExit(
            f"{directory}: exit {done.returncode}, no result object\n{done.stderr}"
        ) from None
    # A metric line is ``<workload> <name> <value> <unit>``.
    printed = {
        parts[1]: float(parts[2])
        for parts in (line.split() for line in lines[:-1])
        if len(parts) == 4 and parts[1] in TICK_METRICS
    }
    return {
        **outcome, "exit": done.returncode, "printed": printed,
        "seed": record["seed"], "ticks": record["ticks"],
    }


def spread(values: list[float]) -> dict:
    """Median and quartiles of one side's runs, and the runs."""
    q1, _, q3 = (
        statistics.quantiles(values, n=4, method="inclusive")
        if len(values) > 1
        else values * 3
    )
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def paired(values: dict[str, list[float]], unit: str, better: str) -> dict:
    """Both sides' spreads and the pairs each side won (a tie counts for neither)."""
    sign = -1 if better == "lower" else 1
    gains = [sign * (b - a) for a, b in zip(values["a"], values["b"])]  # > 0: b won
    return {
        "unit": unit,
        "better": better,
        "a": spread(values["a"]),
        "b": spread(values["b"]),
        "a_wins": sum(gain < 0 for gain in gains),
        "b_wins": sum(gain > 0 for gain in gains),
    }


def print_cell(name: str, cell: dict, pairs: int, gate: str) -> None:
    for side in ("a", "b"):
        s = cell[side]
        print(
            f"  {name} [{cell['unit']}] {side}: median {s['median']:.6g} "
            f"[{s['q1']:.6g}, {s['q3']:.6g}]  wins {cell[f'{side}_wins']}/{pairs}"
        )
    change = cell["b"]["median"] / cell["a"]["median"] - 1.0
    print(f"    b vs a: {change:+.1%} ({cell['better']} is better, {gate})")


def main(argv: list[str] | None = None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="a directory, or a revision for git archive")
    parser.add_argument("b", help="the same, for the other side")
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in contract["workloads"]]
    )
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--seed", type=int, help="workload seed (default: the command's own)")
    parser.add_argument(
        "--trace", action="store_true", help="then diff the traced counts, one run per side"
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    command = [*contract["command"], "--workload", args.workload]
    command += ["--seconds", f"{args.seconds:g}"]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]

    runs: dict[str, list[dict]] = {"a": [], "b": []}
    with tempfile.TemporaryDirectory(prefix="pair-") as scratch:
        directories = {
            side: checkout(getattr(args, side), Path(scratch), side) for side in runs
        }
        for pair in range(args.pairs):
            for side in ("a", "b") if pair % 2 == 0 else ("b", "a"):
                last = run_once(
                    [*command, "--trace", "0"], directories[side], Path(scratch) / "detail.json"
                )
                runs[side].append(last)
                print(
                    f"pair {pair + 1}/{args.pairs} {side}: exit {last['exit']} "
                    f"failed {last['failed']}/{last['attempted']}",
                    file=sys.stderr,
                )
        traced = {
            side: run_once(
                [*command, "--trace", "1"], directories[side], Path(scratch) / "detail.json"
            )
            for side in runs
            if args.trace
        }

    row: dict = {
        "a": args.a,
        "b": args.b,
        "workload": args.workload,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seed": runs["a"][0]["seed"],
        "metrics": {},
        "info": {},
    }
    for side, results in runs.items():
        row[f"{side}_src_tree"] = src_tree(getattr(args, side))
        row[f"{side}_attempted"] = [r["attempted"] for r in results]
        row[f"{side}_ticks"] = [r["ticks"] for r in results]
        row[f"{side}_failed"] = sum(r["failed"] for r in results)
        row[f"{side}_bad_exits"] = sum(r["exit"] != 0 for r in results)
    for metric in contract["end_to_end"]:
        name = metric["name"]
        values = {
            side: [r["metrics"][name]["value"] for r in results]
            for side, results in runs.items()
        }
        row["metrics"][name] = {
            **paired(values, metric["unit"], metric["better"]), "bound": metric["bound"]
        }
    per_layer = {metric["name"]: metric for metric in contract["per_layer"]}
    for name in TICK_METRICS:
        metric = per_layer[f"bench.{name}"]
        values = {side: [r["printed"][name] for r in results] for side, results in runs.items()}
        row["info"][name] = paired(values, metric["unit"], metric["better"])

    print(
        f"{args.workload}: {args.pairs} pairs x {args.seconds:g} s, seed {row['seed']}, "
        f"a={args.a} b={args.b}"
    )
    for name, cell in row["metrics"].items():
        print_cell(name, cell, args.pairs, f"bound {cell['bound']:.0%}")
    for name, cell in row["info"].items():
        print_cell(name, cell, args.pairs, "information only")
    for side in ("a", "b"):
        print(
            f"  {side}: ticks {row[f'{side}_ticks']}  attempted {row[f'{side}_attempted']}  "
            f"failed {row[f'{side}_failed']}  non-zero exits {row[f'{side}_bad_exits']}"
        )

    differing = 0
    if traced:
        names = [m["name"] for m in contract["per_layer"] if m["unit"] == "count"]
        row["trace"] = {}
        print(f"  traced counts, one run per side at seed {row['seed']}:")
        for name in (*names, *TRACED_RATIOS):
            a, b = (traced[side]["metrics"][name]["value"] for side in ("a", "b"))
            row["trace"][name] = {"a": a, "b": b, "identical": a == b}
            differing += a != b
            print(f"    {name}: {a:.10g} | {b:.10g}  {'identical' if a == b else 'DIFFERENT'}")
        row["trace_bad_exits"] = sum(run["exit"] != 0 for run in traced.values())
        print(f"    {differing} different, non-zero exits {row['trace_bad_exits']}")

    rows = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    rows.append(row)
    TRAJECTORY.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
    bad_exits = row["a_bad_exits"] + row["b_bad_exits"] + row.get("trace_bad_exits", 0)
    return 0 if not (bad_exits or differing) else 1


if __name__ == "__main__":
    sys.exit(main())
