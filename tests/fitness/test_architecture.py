"""Structural properties the paper's correctness argument needs: an
isomorphism-free filtering path and encapsulated monitor state.

The import, clock, trace-id and exception invariants are in
``test_invariants.py``; the transitive import closure of the filtering
path is pinned in ``test_cold_import.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


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
    """The satellite API CachingVerifier depends on: versions advance
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
