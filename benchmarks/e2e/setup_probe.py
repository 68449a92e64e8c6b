"""One set-up of one workload in this fresh process — a ``setup_s`` sample.

    python -m benchmarks.e2e.setup_probe --workload W --seed N
        --workdir DIR --spawned-at T

``setup_s`` runs from the parent's spawn (``T``, the parent's
``time.perf_counter()`` just before it started this process — the clock
is system-wide) to the first answer read: interpreter start, importing
the program, constructing the monitor or server, registering every
stream with its initial graph, reading the first answer.  Generating the
inputs is the load generator's cost and is taken out.  Only the modules
a set-up needs are imported here (no oracle, no harness).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import loadgen
from .depths import DEPTHS, segment_census, sweep_leaked


def main() -> int:
    ready = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(loadgen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    script = loadgen.generate(args.workload, args.seed, 1.0, max_ticks=1, smoke=args.smoke)
    segments = segment_census()
    depth = DEPTHS[script.workload.depth](script, args.workdir)
    generated = time.perf_counter()
    depth.start()
    answered = time.perf_counter()
    failed = depth.failed + depth.close() + sweep_leaked(segments)
    setup_s = (ready - args.spawned_at) + (answered - generated)
    print(json.dumps({"setup_s": setup_s, "failed": failed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
