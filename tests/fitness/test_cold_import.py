"""Cold-import budget: numpy is paid for by the `matrix` engine alone,
and the analyzer by the `lint` verb alone.

Every process of a deployment (runner, each forked worker, the `repro
serve` child) imports `repro`; only `repro.join.matrix` needs numpy, and
no default (`dsc`) path may drag it in.  Every CLI verb builds the
argument parser; only `lint` needs `repro.analysis`.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

PROBE = """
import sys
import repro
import repro.cli
repro.cli.build_parser()
loaded = sorted(name for name in sys.modules if name.startswith("repro.analysis"))
assert not loaded, f"building the CLI parser imported {loaded}"
from repro import LabeledGraph, StreamMonitor
from repro.join import ENGINES, QuerySet, make_engine

query = LabeledGraph.from_vertices_and_edges([(0, "A"), (1, "B")], [(0, 1, "-")])
monitor = StreamMonitor({"ab": query}, method="dsc")
monitor.add_stream("s", query)
assert monitor.matches() == {("s", "ab")}
assert sorted(ENGINES) == ["dsc", "matrix", "nl", "skyline"]
assert "numpy" not in sys.modules, "the dsc path imported numpy"

import repro.join
engine = make_engine("matrix", QuerySet({"ab": query}, depth_limit=3))
assert type(engine) is repro.join.MatrixJoin is ENGINES["matrix"]
assert "numpy" in sys.modules
"""


def test_numpy_is_imported_by_the_matrix_engine_only() -> None:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
