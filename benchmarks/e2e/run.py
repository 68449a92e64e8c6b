"""One measured run of one workload — the ``BENCHMARK.json`` command.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the layer probes and reports the per-layer metrics.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; any correctness failure (a
missed true pair, a refused operation, a leaked segment, a child that
would not stop) makes the exit status non-zero.

The measurement runs in a child of this command (``--inner``); the
command itself stays behind as the reaper of every process below it
(``reaper.py``) and prints the result only once the last one has ended,
so nothing the run started is alive when its exit status is read.

The suite (``python -m benchmarks.e2e``) runs this file once per
repetition in a fresh child process and pools the ``--detail`` files.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

if __package__ in (None, ""):  # run as a file: make both packages importable
    _ROOT = Path(__file__).resolve().parents[2]
    sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]
    __package__ = "benchmarks.e2e"

from . import loadgen  # noqa: E402
from .depths import segment_census, sweep_leaked  # noqa: E402
from .harness import HERE, contract, measure_end_to_end  # noqa: E402
from .reaper import adopt_orphans, reap_descendants  # noqa: E402

#: The driver allows a run 180 s; the measuring child gets this much.
INNER_TIMEOUT_S = 160.0


def result(detail: dict, names: list[str]) -> dict:
    """The driver's result object: the contract's metrics and nothing else."""
    metrics = {
        name: {"value": detail["metrics"][name][0], "unit": detail["metrics"][name][1]}
        for name in names
    }
    return {
        "correct": detail["failed"] == 0 and detail["recall"] == 1.0,
        "attempted": max(int(detail["attempted"]), 1),
        "failed": int(detail["failed"]),
        "metrics": metrics,
    }


def measure(args: argparse.Namespace, workdir: Path) -> dict:
    """The whole measurement of one run, in this process."""
    # The traced run replays a fixed tick count, the untraced one a clock.
    max_ticks = loadgen.trace_ticks(args.workload, args.seconds) if args.trace else 0
    script = loadgen.generate(args.workload, args.seed, args.seconds, max_ticks, args.smoke)
    if args.trace:
        from .layers import measure_layers

        return measure_layers(script, workdir)
    return measure_end_to_end(script, args.seconds, workdir)


def supervise(argv: list[str], workdir: Path) -> dict | None:
    """Measure in a child, then wait for every process below this one.
    The child's record, or None if it failed; a process that had to be
    killed, or a shared-memory segment a killed one left, is a failed
    operation."""
    if not adopt_orphans():
        raise RuntimeError("prctl(PR_SET_CHILD_SUBREAPER) refused: orphans cannot be waited for")
    record = workdir / "inner.json"
    segments = segment_census()
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *argv, "--inner", str(record)]
    )
    try:
        code = child.wait(timeout=INNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        left = reap_descendants() + sweep_leaked(segments)
    if code != 0 or not record.exists():
        sys.stderr.write(f"measuring child failed (exit {code}; {left} processes/segments left)\n")
        return None
    detail = json.loads(record.read_text())
    detail["failed"] += left
    return detail


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(loadgen.WORKLOADS))
    parser.add_argument("--seed", type=int, default=loadgen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", help="also write the full per-tick record here")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, same code paths")
    parser.add_argument("--inner", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.inner:
        # The measuring child: works in the supervisor's directory (which
        # the supervisor removes even if this process is killed), leaves
        # the record there and prints nothing.
        args.inner.write_text(json.dumps(measure(args, args.inner.parent)))
        return 0
    workdir = HERE / ".work" / f"{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        detail = supervise(argv, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if detail is None:
        return 1
    names = [m["name"] for m in contract()["per_layer" if args.trace else "end_to_end"]]
    if args.detail:
        Path(args.detail).write_text(json.dumps(detail))
    for name, (value, unit) in detail["metrics"].items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    outcome = result(detail, names)
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
