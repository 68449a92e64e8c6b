"""Architecture invariants, as one ``ast`` walk over ``src/`` and ``benchmarks/``:
a rule maps a module name and a node to a message or None, and :func:`scan`
runs it over the real tree or over a violating module planted under ``tmp_path``."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Imported module -> the one module prefix that may import it (None: no
#: module may).  Every matching entry applies: ``repro.runtime.worker``
#: may import ``threading`` but not ``multiprocessing``, which only the
#: payload rings use (workers are forked, not ``multiprocessing`` children).
CONFINED_IMPORTS = {
    **dict.fromkeys(["threading", "_thread", "queue", "concurrent"], "repro.runtime"),
    "multiprocessing": "repro.runtime.shm",
    "multiprocessing.shared_memory": "repro.runtime.shm",
    "multiprocessing.resource_tracker": "repro.runtime.shm",
    "_blake2": "repro.runtime.router",
    # The serving edge is one ``selectors`` loop: nothing needs asyncio,
    # nor the ssl it loads.
    "asyncio": None,
}
#: Packages whose stages are timed by ``repro.obs`` spans, never by a clock read.
INSTRUMENTED = ("repro.graph", "repro.nnt", "repro.join", "repro.core", "repro.runtime")
CLOCKS = {"time", "clock", "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns",
          "process_time", "process_time_ns", "thread_time", "thread_time_ns"}
BROAD = {"Exception", "BaseException"}


def _within(module: str, *prefixes: str) -> bool:
    return any(module == prefix or module.startswith(prefix + ".") for prefix in prefixes)


def scan(root: Path, rule) -> list[str]:
    """``path:line: message`` for each node ``rule(module name, node)`` flags."""
    found = []
    for tree, base in ((root / "src", root / "src"), (root / "benchmarks", root)):
        for path in sorted(tree.rglob("*.py")):
            parts = path.relative_to(base).with_suffix("").parts
            module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if message := rule(module, node):
                    found.append(f"{path}:{node.lineno}: {message}")
    return found


def _imported(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level:
        return [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
    return []


def _called(node: ast.AST) -> str:  # "os.urandom" for os.urandom(8)
    return ast.unparse(node.func) if isinstance(node, ast.Call) else ""


def confined_import(module: str, node: ast.AST) -> str | None:
    for name in _imported(node):
        for confined, owner in CONFINED_IMPORTS.items():
            if _within(name, confined) and not (owner and _within(module, owner)):
                return f"{name} is imported outside {owner}" if owner else f"{name} is imported"
    return None


def clock_read(module: str, node: ast.AST) -> str | None:
    if not _within(module, *INSTRUMENTED) or module == "repro.core.metrics":
        return None
    owner, _, clock = _called(node).partition(".")
    imported = {a.name for a in node.names} if getattr(node, "module", "") == "time" else set()
    if (owner == "time" and clock in CLOCKS) or CLOCKS & imported:
        return "a clock read; time the stage with an obs span"
    return None


def trace_id_minting(module: str, node: ast.AST) -> str | None:
    if not _within(module, *INSTRUMENTED, "repro.obs") or module == "repro.obs.trace":
        return None
    if _called(node) == "os.urandom" or any(_within(n, "uuid", "secrets") for n in _imported(node)):
        return "entropy read; trace ids come from repro.obs.trace"
    if isinstance(node, ast.FunctionDef) and node.name in {"new_trace_id", "new_span_id"}:
        return f"{node.name}() defined outside repro.obs.trace"
    return None


def swallowed_exception(module: str, node: ast.AST) -> str | None:
    # A worker that swallows an error diverges instead of crashing and being respawned.
    if not _within(module, "repro") or not isinstance(node, ast.ExceptHandler):
        return None
    kinds = getattr(node.type, "elts", [node.type])
    broad = node.type is None or any(ast.unparse(kind).split(".")[-1] in BROAD for kind in kinds)
    idle = all(ast.unparse(stmt) in {"pass", "continue", "..."} for stmt in node.body)
    return "broad do-nothing except" if broad and idle else None


RULES = (confined_import, clock_read, trace_id_minting, swallowed_exception)


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.__name__)
def test_the_tree_holds(rule) -> None:
    assert scan(REPO_ROOT, rule) == []


SWALLOW = "try:\n    f()\nexcept {}:\n    pass\n"
#: (rule, planted file, its source, the line flagged, or None where the rule exempts it).
PLANTED = (
    (confined_import, "src/repro/join/x.py", "import threading\n", 1),
    (confined_import, "benchmarks/x.py", "import os\nfrom concurrent import futures\n", 2),
    (confined_import, "src/repro/runtime/x.py", "from multiprocessing import shared_memory\n", 1),
    (confined_import, "src/repro/runtime/shm.py", "import multiprocessing.shared_memory\n", None),
    (confined_import, "src/repro/runtime/coordinator.py", "import multiprocessing\n", 1),
    (confined_import, "src/repro/obs/x.py", "import asyncio\n", 1),
    (confined_import, "src/repro/serve/x.py", "import asyncio\n", 1),
    (clock_read, "src/repro/nnt/x.py", "import time\nstart = time.perf_counter()\n", 2),
    (clock_read, "src/repro/runtime/x.py", "from time import monotonic\n", 1),
    (clock_read, "src/repro/core/metrics.py", "import time\ntime.perf_counter()\n", None),
    (trace_id_minting, "src/repro/obs/spans.py", "import uuid\n", 1),
    (trace_id_minting, "src/repro/core/x.py", "import os\nos.urandom(8)\n", 2),
    (trace_id_minting, "src/repro/join/x.py", "def new_span_id():\n    return 1\n", 1),
    (trace_id_minting, "src/repro/obs/trace.py", "import secrets\n", None),
    (swallowed_exception, "src/repro/runtime/x.py", SWALLOW.format("Exception"), 3),
    (swallowed_exception, "src/repro/x.py", "try:\n    f()\nexcept:\n    ...\n", 3),
    (swallowed_exception, "benchmarks/x.py", SWALLOW.format("Exception"), None),
)


@pytest.mark.parametrize(
    "rule, relative, source, line", PLANTED, ids=[f"{r.__name__}-{f}-{n}" for r, f, _, n in PLANTED]
)
def test_a_planted_module_is_flagged_at_its_line(tmp_path, rule, relative, source, line) -> None:
    planted = tmp_path / relative
    planted.parent.mkdir(parents=True)
    planted.write_text(source)
    expected = [] if line is None else [f"{planted}:{line}"]
    assert [finding.split(": ")[0] for finding in scan(tmp_path, rule)] == expected
