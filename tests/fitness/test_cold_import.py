"""Cold-import budget: numpy is paid for by the `matrix` engine alone,
and the serving edge, the historical obs layers and the offline tools
by their own callers alone; the exact matcher by no filtering module.

Every process of a deployment (runner, each forked worker, the `repro
serve` child) imports `repro`; only `repro.join.matrix` needs numpy, and
no default (`dsc`) path may drag it in.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

PROBE = """
import sys
import repro
import repro.cli
repro.cli.build_parser()
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


# The set-up closures: what importing a filtering module pays for.
# ``socket``, ``subprocess`` and ``multiprocessing`` are still in all of
# them, because the package root re-exports ``ShardedMonitor`` for the
# benchmark harness; they are left for ROADMAP item 1(a), which
# re-points the harness's imports.
SERVING_EDGE = {"asyncio", "ssl"} | {
    f"repro.serve.{name}" for name in ("server", "session", "http", "lifecycle")
}
OFFLINE_AND_HISTORICAL = {
    f"repro.obs.{name}" for name in ("slo", "flight", "timeline", "exposition")
} | {f"repro.core.{name}" for name in ("database", "window", "verify")}


def _modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probe = code + "\nimport sys\nprint(' '.join(sys.modules))\n"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines()[-1].split())


def _under(loaded: set[str], *packages: str) -> set[str]:
    return {
        name for name in loaded for package in packages
        if name == package or name.startswith(package + ".")
    }


def test_parsing_the_wire_protocol_loads_no_serving_edge() -> None:
    loaded = _modules_after("import repro.serve.protocol")
    assert not loaded & SERVING_EDGE
    repro_modules = _under(loaded, "repro")
    assert len(repro_modules) <= 40, sorted(repro_modules)


@pytest.mark.parametrize("module", ["repro.core.monitor", "repro.runtime.worker"])
def test_a_monitor_process_loads_no_offline_tool(module: str) -> None:
    loaded = _modules_after(f"import {module}")
    assert not loaded & OFFLINE_AND_HISTORICAL
    assert not _under(loaded, "repro.isomorphism", "repro.datasets")


def test_building_the_cli_parser_loads_no_generator_database_or_loop() -> None:
    loaded = _modules_after("import repro.cli\nrepro.cli.build_parser()")
    assert not loaded & {"asyncio", "repro.core.database"}
    assert not _under(loaded, "repro.datasets")


# What ``repro serve --workers 2`` holds when it forks its first worker
# is what every worker inherits: the worker's run path (so a worker
# compiles nothing after the fork) and, of the verbs, the serve handler
# alone -- each handler is compiled only when its verb is dispatched.
SERVE_FORK_PROBE = """
import os, sys
from repro.cli import main

def first_fork():
    repro = [module for name, module in sys.modules.items() if name.startswith("repro")]
    print(sorted(a for m in repro for a in vars(m) if a.startswith(("cmd_", "_cmd_"))))
    print(" ".join(sys.modules), flush=True)
    os._exit(0)

os.register_at_fork(before=first_fork)
main(["serve", "--queries", sys.argv[1], "--workers", "2", "--tcp", "127.0.0.1:0"])
"""
WORKER_RUN_PATH = {
    "repro.core.monitor", "repro.nnt.incremental", "repro.join.dominated_set_cover",
    "repro.runtime.worker",
}


def test_serve_forks_its_workers_from_the_serve_handler_alone(tmp_path: Path) -> None:
    queries = tmp_path / "queries.txt"
    queries.write_text("t # q\nv 0 A\nv 1 B\ne 0 1 x\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", SERVE_FORK_PROBE, str(queries)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    *_, handlers, modules = result.stdout.splitlines()
    loaded = set(modules.split())
    assert handlers == "['cmd_serve']"
    from repro.cli import HANDLERS

    assert WORKER_RUN_PATH <= loaded, sorted(WORKER_RUN_PATH - loaded)
    assert HANDLERS["serve"] in loaded
    assert not loaded & (set(HANDLERS.values()) - {HANDLERS["serve"]})
    assert not loaded & SERVING_EDGE  # imported after the fork


def test_vf2_is_loaded_by_verified_matches_only() -> None:
    _modules_after(
        """
import sys
from repro import LabeledGraph, StreamMonitor

query = LabeledGraph.from_vertices_and_edges([(0, "A"), (1, "B")], [(0, 1, "-")])
monitor = StreamMonitor({"ab": query})
monitor.add_stream("s", query)
assert "repro.isomorphism.vf2" not in sys.modules
assert monitor.verified_matches() == {("s", "ab")}
assert "repro.isomorphism.vf2" in sys.modules
"""
    )


# Lemma 4.2: the filter is complete without an isomorphism test, so no
# filtering module may load the exact matcher, however many hops away.
ISOMORPHISM_PROBE = """
import importlib, pkgutil, sys

class Witness:  # finds nothing; prints who first asks for the exact matcher
    def find_spec(self, name, path=None, target=None):
        if name == "repro.isomorphism":
            frame = sys._getframe(1)
            while frame.f_code.co_filename.startswith("<"):  # importlib's own frames
                frame = frame.f_back
            print(importing, f"{frame.f_code.co_filename}:{frame.f_lineno}")

sys.meta_path.insert(0, Witness())
for package in ("repro.graph", "repro.nnt", "repro.join"):
    importing = package
    for module in pkgutil.walk_packages(importlib.import_module(package).__path__, package + "."):
        importing = module.name
        importlib.import_module(module.name)
print("repro.isomorphism" in sys.modules)
"""


def isomorphism_importers(src: Path) -> list[str]:
    """``module path:line``: each filtering module imported from ``src``
    whose closure loads ``repro.isomorphism``, and the import that does."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", ISOMORPHISM_PROBE], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    *sites, loaded = result.stdout.splitlines()
    assert loaded == str(bool(sites)), "loaded, but no import was witnessed"
    return sites


def test_the_filtering_path_never_loads_the_exact_matcher() -> None:
    assert isomorphism_importers(SRC) == []


def test_a_transitive_isomorphism_import_is_found(tmp_path: Path) -> None:
    for package in ("", "graph", "nnt", "join", "core", "isomorphism"):
        (tmp_path / "repro" / package).mkdir(exist_ok=True)
        (tmp_path / "repro" / package / "__init__.py").write_text("")
    (tmp_path / "repro/core/helper.py").write_text('"""Helper."""\nimport repro.isomorphism\n')
    (tmp_path / "repro/join/engine.py").write_text("from repro.core import helper\n")
    assert isomorphism_importers(tmp_path) == [f"repro.join.engine {tmp_path}/repro/core/helper.py:2"]
