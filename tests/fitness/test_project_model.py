"""The model every lint run builds: import graph, symbol resolution,
RP012's same-class span lookup, file discovery, and the degradation
paths the CLI depends on."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import ProjectModel, analyze_paths, analyze_sources, iter_python_files
from repro.analysis import project_rules
from repro.analysis.graphs import ImportEdge, ImportGraph

# ----------------------------------------------------------------------
# graphs
# ----------------------------------------------------------------------


def _graph(edges: list[tuple[str, str]], nodes: set[str]) -> ImportGraph:
    graph = ImportGraph(nodes)
    for lineno, (source, target) in enumerate(edges, start=1):
        graph.add_edge(ImportEdge(source, target, lineno, 0))
    return graph


def test_cycle_detection_finds_sccs_not_tree_edges() -> None:
    graph = _graph(
        [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")],
        {"a", "b", "c", "d"},
    )
    assert graph.cycles() == [["a", "b", "c"]]


def test_typing_only_edges_do_not_create_cycles() -> None:
    graph = ImportGraph({"a", "b"})
    graph.add_edge(ImportEdge("a", "b", 1, 0))
    graph.add_edge(ImportEdge("b", "a", 1, 0, typing_only=True))
    assert graph.cycles() == []


def test_shortest_path_is_deterministic_and_minimal() -> None:
    graph = _graph(
        [("a", "b"), ("b", "d"), ("a", "c"), ("c", "d"), ("a", "d")],
        {"a", "b", "c", "d"},
    )
    assert graph.shortest_path("a", {"d"}) == ["a", "d"]
    assert graph.shortest_path("b", {"d"}) == ["b", "d"]
    assert graph.shortest_path("d", {"a"}) is None


def test_function_level_imports_are_lazy_not_cyclic() -> None:
    """A function-body import is the canonical cycle *break*; the model
    must not report the broken cycle as if it still existed."""
    model = ProjectModel(
        [
            (
                "import repro.obs.registry\n",
                "a.py",
                "repro.obs.instruments",
                None,
            ),
            (
                "def lookup():\n    import repro.obs.instruments\n",
                "b.py",
                "repro.obs.registry",
                None,
            ),
        ]
    )
    assert model.import_graph.cycles() == []


# ----------------------------------------------------------------------
# RP012: which spans count as covering a hot path
# ----------------------------------------------------------------------

_DELEGATING = (
    "from repro import obs\n"
    "class Inner:\n"
    "    def work(self):\n"
    "        with obs.span('inner.work'):\n"
    "            return 1\n"
    "class Outer:\n"
    "    inner: Inner\n"
    "    def run(self):\n"
    "        return self.step()\n"
    "    def step(self):\n"
    "{step_body}"
)


def _rp012_lines(
    monkeypatch: pytest.MonkeyPatch, source: str, qualname: str
) -> list[int]:
    monkeypatch.setattr(
        project_rules, "HOT_PATHS", (("repro.core.modelmod", qualname),)
    )
    entry = (source, "m.py", "repro.core.modelmod", None)
    return [f.line for f in analyze_sources([entry], ["RP012"])]


def test_rp012_follows_self_calls_within_the_class_only(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    """``run -> self.step()`` is covered when ``step`` opens the span;
    ``run -> self.step() -> self.inner.work()`` is not — the span lives
    in another class, behind a typed attribute."""
    own_span = "        with obs.span('outer.step'):\n            return 1\n"
    source = _DELEGATING.format(step_body=own_span)
    assert _rp012_lines(monkeypatch, source, "Outer.run") == []

    source = _DELEGATING.format(step_body="        return self.inner.work()\n")
    assert _rp012_lines(monkeypatch, source, "Outer.run") == [8]


def test_rp012_rejects_an_unknown_receiver(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    source = (
        "from repro import obs\n"
        "class Helper:\n"
        "    def work(self):\n"
        "        with obs.span('helper.work'):\n"
        "            return 1\n"
        "class Host:\n"
        "    def run(self):\n"
        "        target = self._pick()\n"
        "        return target.work()\n"
        "    def _pick(self):\n"
        "        return Helper()\n"
    )
    assert _rp012_lines(monkeypatch, source, "Host.run") == [7]


def test_rp012_reports_a_vanished_hot_path(monkeypatch: pytest.MonkeyPatch) -> None:
    """A HOT_PATHS entry whose function no longer exists fails the run
    like any other finding, anchored at the top of its module."""
    assert _rp012_lines(monkeypatch, "class Host:\n    pass\n", "Host.run") == [1]


def test_resolve_global_follows_imports_across_modules() -> None:
    defining = "SHARED = []\nFROZEN = ('a', 'b')\n"
    importing = "from repro.core.defs import SHARED, FROZEN\n"
    model = ProjectModel(
        [
            (defining, "defs.py", "repro.core.defs", None),
            (importing, "use.py", "repro.core.use", None),
        ]
    )
    use = model.modules["repro.core.use"]
    owner, name = model.resolve_global(use, "SHARED")
    assert owner.canonical == "repro.core.defs"
    assert name in owner.mutable_globals
    owner, name = model.resolve_global(use, "FROZEN")
    assert name not in owner.mutable_globals


# ----------------------------------------------------------------------
# discovery: skip names match below the given root only
# ----------------------------------------------------------------------


def test_skip_dirs_match_below_the_given_root_only(tmp_path: Path) -> None:
    """A checkout under a directory called ``build`` is still linted;
    a ``build`` directory *inside* the root is still skipped."""
    root = tmp_path / "build"
    bad = root / "pkg" / "bad.py"
    nested = root / "pkg" / "build" / "x.py"
    for file in (bad, nested):
        file.parent.mkdir(parents=True, exist_ok=True)
        file.write_text("def f(items=[]):\n    return items\n")

    assert iter_python_files([root]) == [bad]
    assert [(f.path, f.rule_id) for f in analyze_paths([root])] == [(str(bad), "RP004")]


# ----------------------------------------------------------------------
# degradation: broken files must not abort the run
# ----------------------------------------------------------------------


def test_analyze_paths_degrades_non_utf8_files(tmp_path: Path) -> None:
    good = tmp_path / "good.py"
    good.write_text("x = 1\n")
    bad = tmp_path / "bad.py"
    bad.write_bytes(b"x = '\xff\xfe broken'\n")

    findings = analyze_paths([tmp_path])

    rp000 = [f for f in findings if f.rule_id == "RP000"]
    assert len(rp000) == 1
    assert rp000[0].path == str(bad)
    assert "unreadable" in rp000[0].message


def test_project_model_degrades_broken_files(tmp_path: Path) -> None:
    """One ``RP000`` per unreadable or unparsable file, and the rules
    still run on the rest."""
    (tmp_path / "good.py").write_text("def f(items=[]):\n    return items\n")
    (tmp_path / "binary.py").write_bytes(b"\xff\xfe")
    (tmp_path / "syntax.py").write_text("def broken(:\n")

    findings = analyze_paths([tmp_path])

    assert sorted((Path(f.path).name, f.rule_id) for f in findings) == [
        ("binary.py", "RP000"),
        ("good.py", "RP004"),
        ("syntax.py", "RP000"),
    ]
