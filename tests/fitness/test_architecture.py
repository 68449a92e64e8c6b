"""The real tree satisfies every invariant the analyzer enforces.

These are the repo's "fitness functions": they run the full rule pack
against ``src/`` and ``benchmarks/`` (the same scope CI lints) and pin
the specific structural properties the paper's correctness argument
needs — an isomorphism-free filtering path and encapsulated monitor
state.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis import (
    ALLOWED_IMPORTS,
    FILTERING_PATH_UNITS,
    REGISTRY,
    analyze_paths,
    iter_python_files,
    resolve_unit,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
LINT_SCOPE = [REPO_ROOT / "src", REPO_ROOT / "benchmarks"]


def test_tree_is_clean() -> None:
    """`python -m repro.analysis src benchmarks` exits 0: all 18 rules —
    the cross-file protocol ones included — hold on the real tree, not
    just on fixtures."""
    findings = analyze_paths(LINT_SCOPE)
    assert findings == [], "\n".join(f.render() for f in findings)


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
    for path in iter_python_files([REPO_ROOT / "src"]):
        if path.name == "monitor.py":
            continue
        for lineno, text in enumerate(path.read_text().splitlines(), start=1):
            assert "._indexes" not in text, f"{path}:{lineno}: {text.strip()}"


def test_layering_matrix_covers_every_unit_in_tree() -> None:
    """Every analyzed module resolves to a unit the matrix knows about,
    so a newly added package cannot silently bypass RP001."""
    from repro.analysis.layering import module_name_for_path

    for path in iter_python_files(LINT_SCOPE):
        unit = resolve_unit(module_name_for_path(path))
        assert unit in ALLOWED_IMPORTS, (
            f"{path} resolves to unit {unit!r} which is absent from "
            "ALLOWED_IMPORTS — add it to the layering matrix"
        )


def test_filtering_path_units_are_isomorphism_free_in_the_matrix() -> None:
    """The matrix itself never grants the filtering path access to the
    exact matcher (guards against a careless matrix edit)."""
    for unit in FILTERING_PATH_UNITS:
        allowed = ALLOWED_IMPORTS[unit]
        assert allowed != "*", f"{unit} must not import arbitrary units"
        assert "repro.isomorphism" not in allowed


def test_every_rule_is_documented() -> None:
    """The one registry holds exactly RP001-RP018, and
    docs/static_analysis.md catalogs every id."""
    assert sorted(REGISTRY) == [f"RP{number:03d}" for number in range(1, 19)]
    catalog = (REPO_ROOT / "docs" / "static_analysis.md").read_text()
    for rule_id in REGISTRY:
        assert rule_id in catalog, f"{rule_id} missing from docs"


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
