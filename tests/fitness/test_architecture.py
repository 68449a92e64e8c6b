"""Structural properties the paper's correctness argument needs: an
isomorphism-free filtering path, encapsulated monitor state, and join
engines that return verdicts while one site records what they pruned.

The import, clock, trace-id and exception invariants are in
``test_invariants.py``; the transitive import closure of the filtering
path is pinned in ``test_cold_import.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.join import ENGINES

from .test_metric_catalog import minted

REPO_ROOT = Path(__file__).resolve().parents[2]
#: The modules of the four join engines (``repro.join.ENGINES``).
ENGINE_MODULES = ("nested_loop", "dominated_set_cover", "skyline", "matrix")


def test_filtering_path_never_mentions_isomorphism() -> None:
    """Belt-and-braces textual check, independent of the rule engine:
    no module under nnt/ or join/ imports repro.isomorphism at all."""
    for package in ("nnt", "join"):
        for path in (REPO_ROOT / "src" / "repro" / package).rglob("*.py"):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                for name in names:
                    assert "isomorphism" not in name, (
                        f"{path}:{node.lineno} imports {name!r} — the "
                        "filtering path must stay isomorphism-free"
                    )


def test_monitor_private_state_is_not_reached_into() -> None:
    """No file outside core/monitor.py mentions ``._indexes``."""
    for path in (REPO_ROOT / "src").rglob("*.py"):
        if path.name == "monitor.py":
            continue
        for lineno, text in enumerate(path.read_text().splitlines(), start=1):
            assert "._indexes" not in text, f"{path}:{lineno}: {text.strip()}"


def test_mutation_version_is_a_public_monotone_counter() -> None:
    """The API PrecisionProbe's matcher cache keys on: versions advance
    exactly with graph mutations."""
    from repro import EdgeChange, LabeledGraph, StreamMonitor

    pattern = LabeledGraph.from_vertices_and_edges(
        [(0, "A"), (1, "B")], [(0, 1, "x")]
    )
    monitor = StreamMonitor({"q0": pattern})
    monitor.add_stream("s0")
    v0 = monitor.mutation_version("s0")
    monitor.apply("s0", EdgeChange.insert(10, 11, "x", "A", "B"))
    v1 = monitor.mutation_version("s0")
    assert v1 == v0 + 1
    # Reading results does not mutate.
    monitor.matches()
    assert monitor.mutation_version("s0") == v1
    monitor.apply("s0", EdgeChange.delete(10, 11))
    assert monitor.mutation_version("s0") == v1 + 1


def imported_names(path: Path, package: str) -> list[str]:
    """Absolute names of the modules, and of the module attributes, that
    the module at ``path`` (in ``package``) imports."""
    names: list[str] = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{base}" if base else parent
            names += [base, *(f"{base}.{alias.name}" for alias in node.names)]
    return names


def test_join_engines_import_no_telemetry() -> None:
    """An engine's ``is_candidate`` is a pure verdict: what it pruned is
    recorded by ``JoinEngine.candidates``, so no engine imports ``repro.obs``."""
    for module in ENGINE_MODULES:
        path = REPO_ROOT / "src" / "repro" / "join" / f"{module}.py"
        telemetry = [
            name
            for name in imported_names(path, "repro.join")
            if name == "repro.obs" or name.startswith("repro.obs.")
        ]
        assert telemetry == [], f"{path.name} imports {telemetry}"


def test_filter_telemetry_has_one_recording_site() -> None:
    """``filter.candidates`` and every ``join.<engine>.pruned`` are minted
    at one site each, both in ``JoinEngine.candidates`` (``join/base.py``)."""
    sites = minted()
    candidates = sites["filter.candidates"]
    pruned = {tuple(sites[f"join.{name}.pruned"]) for name in ENGINES}
    assert len(candidates) == 1 and candidates[0].startswith("join/base.py:"), candidates
    assert len(pruned) == 1, pruned
    (pruned_sites,) = pruned
    assert len(pruned_sites) == 1 and pruned_sites[0].startswith("join/base.py:"), pruned_sites
