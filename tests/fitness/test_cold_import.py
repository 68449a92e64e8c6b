"""Cold-import budget: numpy is paid for by the `matrix` engine alone,
and the serving edge, the historical obs layers and the offline tools
by their own callers alone; the exact matcher by no filtering module.

Every process of a deployment (runner, each forked worker, the `repro
serve` child) imports `repro`; only `repro.join.matrix` needs numpy, and
no default (`dsc`) path may drag it in.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from ..processes import children, threads

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
SERVING_EDGE = {"asyncio", "ssl"} | {
    f"repro.serve.{name}" for name in ("server", "session", "http", "lifecycle")
}
OFFLINE_AND_HISTORICAL = {
    f"repro.obs.{name}" for name in ("slo", "flight", "timeline", "exposition")
} | {f"repro.core.{name}" for name in ("database", "verify")}


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


def test_filtering_loads_the_trail_count_and_no_def_3_1_reference() -> None:
    loaded = _modules_after(
        """
import repro.core.monitor
from repro import LabeledGraph, StreamMonitor

query = LabeledGraph.from_vertices_and_edges([(0, "A"), (1, "B")], [(0, 1, "-")])
monitor = StreamMonitor({"ab": query})
monitor.add_stream("s", query)
assert monitor.matches() == {("s", "ab")}
"""
    )
    assert _under(loaded, "repro.nnt") == {
        "repro.nnt", "repro.nnt.incremental", "repro.nnt.projection", "repro.nnt.trails"
    }
    assert "repro.render" not in loaded


# Records on the served paths are NamedTuples or slotted classes, so no
# served process pays for ``dataclasses`` (with its ``inspect``, ``ast``
# and ``dis``) or for the code a dataclass generates at import.  The
# benchmark harness's own closures are pinned free of ``dataclasses`` alone.
@pytest.mark.parametrize(
    "code, inspect_free",
    [
        ("import repro", True),
        ("import repro.runtime.worker", True),
        ("import repro.cli; import repro.serve.commands", True),  # serve, before the fork
        ("import repro.serve.server", True),
        ("import repro.serve.protocol", False),
        ("import repro.runtime.shm", False),
    ],
)
def test_served_processes_load_no_dataclasses(code: str, inspect_free: bool) -> None:
    loaded = _modules_after(code)
    assert "dataclasses" not in loaded
    if inspect_free:
        assert "inspect" not in loaded


# Stream placement hashes with the builtin ``_blake2``, and shared
# memory is imported when a ring is made, so no served process maps
# OpenSSL (libcrypto) unless it owns or attaches a payload ring.
OPENSSL = {"hashlib", "_hashlib", "ssl", "secrets", "multiprocessing.shared_memory"}
#: What an event-loop framework would bring into the server.
FRAMEWORK = {"asyncio", "ssl", "inspect", "concurrent.futures"}


@pytest.mark.parametrize(
    "code",
    [
        "import repro",
        "import repro.runtime.worker",
        "import repro.cli; import repro.serve.commands",  # serve, before the fork
        "import repro.serve.server",
    ],
)
def test_served_processes_load_no_openssl(code: str) -> None:
    assert not _modules_after(code) & (OPENSSL | FRAMEWORK)


# ``repro serve --tcp`` as the CLI runs it, looked at once it is
# listening: its ``serve`` loop prints what the process holds, then drains.
SERVE_LISTENING_PROBE = """
import os, sys
from repro.cli import main
from repro.serve.server import ReproServer

def serve(server):
    maps = "/proc/self/maps"
    print(os.path.exists(maps) and "libcrypto" in open(maps).read())
    print(" ".join(sys.modules), flush=True)
    server.request_drain()
    loop(server)

loop, ReproServer.serve = ReproServer.serve, serve
main(["serve", "--queries", sys.argv[1], "--workers", "2", "--tcp", "127.0.0.1:0"])
"""


def test_a_listening_server_holds_no_framework_and_maps_no_openssl(tmp_path: Path) -> None:
    queries = tmp_path / "queries.txt"
    queries.write_text("t # q\nv 0 A\nv 1 B\ne 0 1 x\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", SERVE_LISTENING_PROBE, str(queries)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    *_, listening, crypto, modules = result.stdout.splitlines()
    assert '"notice": "listening"' in listening
    assert crypto == "False"
    assert not set(modules.split()) & (OPENSSL | FRAMEWORK)


def test_the_package_root_loads_no_multiprocessing() -> None:
    """``ShardedMonitor`` forks its workers itself; only a payload ring
    imports ``multiprocessing`` (its ``shared_memory``)."""
    assert not _under(_modules_after("import repro"), "multiprocessing")


# ``repro serve --tcp --workers 2`` with rings off, after a few commits:
# each worker, once its inbox is closed, and the server, once drained,
# print the ``multiprocessing`` modules they hold; the test reads each
# process's threads from /proc while the server listens.
SERVE_PROCESSES_PROBE = """
import sys
import repro.runtime.worker as worker
from repro.cli import main

def loaded(role):
    print(role, sorted(m for m in sys.modules if m.split(".")[0] == "multiprocessing"), flush=True)

run = worker.worker_main

def reporting(*args):  # runs in each forked worker
    run(*args)
    loaded("worker")

worker.worker_main = reporting
try:
    main(["serve", "--queries", sys.argv[1], "--workers", "2", "--tcp", "127.0.0.1:0"])
finally:
    loaded("server")
"""


def test_served_processes_run_one_thread_and_load_no_multiprocessing(tmp_path: Path) -> None:
    queries = tmp_path / "queries.txt"
    queries.write_text("t # q\nv 0 A\nv 1 B\ne 0 1 x\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    server = subprocess.Popen(
        [sys.executable, "-c", SERVE_PROCESSES_PROBE, str(queries)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        port = json.loads(server.stdout.readline())["port"]
        with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
            with sock.makefile("rw", encoding="utf-8", newline="\n") as wire:
                assert json.loads(wire.readline())["notice"] == "hello"
                for u in range(3):
                    for doc in (
                        {"cmd": "stream", "stream": f"s{u}"},
                        {"cmd": "ins", "stream": f"s{u}", "u": u, "v": u + 1,
                         "edge_label": "x", "u_label": "A", "v_label": "B"},
                        {"cmd": "commit"},
                    ):
                        wire.write(json.dumps(doc) + "\n")
                        wire.flush()
                        assert json.loads(wire.readline())["ok"]
                workers = children(server.pid)
                assert len(workers) == 2
                assert {pid: threads(pid) for pid in (server.pid, *workers)} == dict.fromkeys(
                    (server.pid, *workers), 1
                )
    finally:
        server.send_signal(signal.SIGTERM)
        out, err = server.communicate(timeout=60)
    assert server.returncode == 0, err
    reports = sorted(line for line in out.splitlines() if line.startswith(("worker", "server")))
    assert reports == ["server []", "worker []", "worker []"], out


def test_a_monitor_with_rings_loads_shared_memory() -> None:
    loaded = _modules_after(
        """
from repro.runtime import ShardedMonitor

ShardedMonitor({}, shm=True, num_workers=1).close()
"""
    )
    assert "multiprocessing.shared_memory" in loaded


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
