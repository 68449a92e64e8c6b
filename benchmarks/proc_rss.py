"""Per-process memory of one workload's system under test after a fixed tick count.

    PYTHONDONTWRITEBYTECODE=1 python benchmarks/proc_rss.py [CHECKOUT] --workload W --ticks N
        [--script-seconds S] [--seed N]

Builds the workload's script with the frozen harness's ``loadgen`` (the
one in ``CHECKOUT``, this checkout by default), starts the system its
``DEPTHS`` entry names, ``drive``s exactly ``--ticks`` ticks through it
and prints one JSON row per process of that system: ``VmHWM``,
``RssAnon``, ``RssFile`` and ``RssShmem`` from ``/proc/<pid>/status``
in MB, and whether ``libcrypto`` is mapped; then a ``total`` row, the
sum of ``VmHWM`` over those processes.  A tick count, not a clock,
so a faster tick does not grow the in-process answer recording and move
the reading.  By default the script holds just those ticks; with
``--script-seconds S`` it is the clock-sized script ``run.py --seconds S``
builds, of which only the first ``--ticks`` are driven, so the rows count
the whole script the runner holds (and every forked worker maps) the way
a timed run does.  To compare two trees, run it inside a ``git archive``
export of each (no ``__pycache__``), or pass the export as ``CHECKOUT``.
Linux only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

FIELDS = ("VmHWM", "RssAnon", "RssFile", "RssShmem")


def memory(pid: int) -> dict:
    """One process's ``FIELDS`` in MB and whether it maps libcrypto."""
    kb = {}
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        key, _, value = line.partition(":")
        if key in FIELDS:
            kb[key] = int(value.split()[0])
    row: dict = {field: round(kb[field] / 1024, 2) for field in FIELDS}
    row["libcrypto"] = "libcrypto" in Path(f"/proc/{pid}/maps").read_text()
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--ticks", type=int, required=True)
    parser.add_argument("--script-seconds", type=float, default=0.0)
    parser.add_argument("--seed", type=int)
    args = parser.parse_args(argv)

    root = args.checkout.resolve()
    sys.path[:0] = [str(root), str(root / "src")]
    sys.dont_write_bytecode = True  # as the benchmark runs, here and in the served child
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    from benchmarks.e2e import loadgen
    from benchmarks.e2e.depths import DEPTHS
    from benchmarks.e2e.harness import Recording, drive

    seed = loadgen.DEFAULT_SEED if args.seed is None else args.seed
    if args.script_seconds:
        script = loadgen.generate(args.workload, seed, args.script_seconds)
        if len(script.ticks) < args.ticks:
            parser.error(f"a {args.script_seconds:g} s script holds {len(script.ticks)} ticks")
    else:
        script = loadgen.generate(args.workload, seed, 1.0, max_ticks=args.ticks)
    with tempfile.TemporaryDirectory() as workdir:
        depth = DEPTHS[script.workload.depth](script, Path(workdir))
        try:
            depth.start()
            recording = Recording()
            drive(depth, script.ticks[: args.ticks], recording)
            pids = depth.pids()
            first = "server" if depth.name == "tcp" else "runner"
            roles = [first] + [f"worker {index}" for index in range(len(pids) - 1)]
            rows = [{"process": role, "pid": pid, **memory(pid)} for role, pid in zip(roles, pids)]
        finally:
            failed = depth.failed + depth.close()
    rows.append({"process": "total", "VmHWM": round(sum(row["VmHWM"] for row in rows), 2)})
    for row in rows:
        print(json.dumps({"workload": args.workload, "ticks": len(recording.digests), **row}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
