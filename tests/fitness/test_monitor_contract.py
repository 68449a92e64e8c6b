"""One monitor contract, stated by behaviour (docs/api.md has the table).

``StreamMonitor`` and ``ShardedMonitor`` share no base class; what keeps
them interchangeable for the CLI and the serve bridge is pinned here:
equal parameter names on every shared public method, one scripted
scenario that must read the same on both (an all-or-nothing ``apply``
included), ``apply`` / ``apply_many`` returning nothing on both,
query graphs the monitor owns rather than borrows, one refusal of an
unknown engine name and one of a depth limit below 1, and a source
check that the code which used to tell them apart has not come back.
"""

from __future__ import annotations

import ast
import inspect
import json
from pathlib import Path

import pytest

from repro import (
    EdgeChange,
    GraphChangeOperation,
    GraphError,
    LabeledGraph,
    ShardedMonitor,
    StreamMonitor,
)
from repro.core import load_monitor

from ..processes import children

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The shared surface the CLI and the bridge rely on.
CONTRACT = set(
    "add_stream remove_stream stream_ids graph register_query deregister_query "
    "query_ids apply apply_many matches is_match events stats obs_summary "
    "trace_spans checkpoint close".split()
)

MONITORS = {
    "in_process": StreamMonitor,
    "sharded": lambda queries, **options: ShardedMonitor(
        queries, num_workers=1, **options
    ),
}


def _public_methods(cls: type) -> dict:
    return {
        name: member
        for name, member in inspect.getmembers(cls, inspect.isfunction)
        if not name.startswith("_")
    }


def test_shared_methods_take_the_same_parameters() -> None:
    ours, theirs = _public_methods(StreamMonitor), _public_methods(ShardedMonitor)
    shared = ours.keys() & theirs.keys()
    assert CONTRACT <= shared, CONTRACT - shared
    for name in sorted(shared):
        assert list(inspect.signature(ours[name]).parameters) == list(
            inspect.signature(theirs[name]).parameters
        ), name
    for cls in (StreamMonitor, ShardedMonitor):
        assert hasattr(cls, "__enter__") and hasattr(cls, "__exit__")


def _edge(a: str, b: str) -> LabeledGraph:
    return LabeledGraph.from_vertices_and_edges([(0, a), (1, b)], [(0, 1, "-")])


def _events(monitor) -> list[tuple]:
    return [(e.kind, e.stream_id, e.query_id) for e in monitor.events()]


@pytest.mark.parametrize("flavour", sorted(MONITORS))
def test_scripted_scenario_reads_the_same(flavour: str, tmp_path: Path) -> None:
    closed = []
    with MONITORS[flavour]({"ab": _edge("A", "B")}, checkpoint_dir=tmp_path) as monitor:
        close = monitor.close
        monitor.close = lambda: (closed.append(True), close())

        monitor.add_stream("s")
        monitor.apply("s", GraphChangeOperation([EdgeChange.insert(1, 2, "-", "A", "B")]))
        assert _events(monitor) == [("appeared", "s", "ab")]

        before = monitor.graph("s").copy()
        with pytest.raises(GraphError):  # the valid prefix must not stay
            monitor.apply(
                "s",
                GraphChangeOperation(
                    [
                        EdgeChange.insert(2, 3, "-", None, "C"),
                        EdgeChange.insert(3, 4, "-", None, "A"),
                        EdgeChange.insert(1, 2, "-"),
                    ]
                ),
            )
        assert monitor.graph("s") == before
        assert _events(monitor) == []

        monitor.register_query("bc", _edge("B", "C"))
        monitor.apply("s", EdgeChange.insert(2, 3, "-", None, "C"))
        monitor.deregister_query("ab")
        assert monitor.query_ids() == ["bc"]
        assert _events(monitor) == [("appeared", "s", "bc")]
        assert monitor.matches() == {("s", "bc")}
        assert monitor.is_match("s", "bc")
        assert sorted(monitor.graph("s").edges()) == [(1, 2, "-"), (2, 3, "-")]

        assert monitor.stats()["num_streams"] == 1
        assert isinstance(monitor.obs_summary(), dict)
        assert isinstance(monitor.trace_spans(), list)

        export = monitor.checkpoint()
        assert (export["num_queries"], export["num_streams"]) == (1, 1)
        assert monitor.checkpoint_dir == tmp_path
    assert closed == [True]
    # Either monitor's export opens as either monitor.
    for other in sorted(MONITORS):
        with load_monitor(tmp_path, MONITORS[other]) as restored:
            assert restored.matches() == {("s", "bc")}
            assert restored.query_ids() == ["bc"]
    with MONITORS[flavour]({}) as bare, pytest.raises(RuntimeError):
        bare.checkpoint()  # no checkpoint_dir


@pytest.mark.parametrize("flavour", sorted(MONITORS))
def test_apply_and_apply_many_return_none(flavour: str) -> None:
    with MONITORS[flavour]({"ab": _edge("A", "B")}) as monitor:
        monitor.add_stream("s")
        monitor.add_stream("t")
        assert monitor.apply("s", EdgeChange.insert(1, 2, "-", "A", "B")) is None
        updates = {
            "s": EdgeChange.insert(2, 3, "-", None, "A"),
            "t": GraphChangeOperation([EdgeChange.insert(1, 2, "-", "A", "B")]),
        }
        assert monitor.apply_many(updates) is None
        assert monitor.matches() == {("s", "ab"), ("t", "ab")}


@pytest.mark.parametrize("flavour", sorted(MONITORS))
def test_a_reused_query_graph_changes_nothing(flavour: str, tmp_path: Path) -> None:
    """The monitor keeps its own copy of every pattern it is handed, at
    construction and at registration: a caller that goes on editing its
    graphs changes neither the live answer nor the checkpoint export."""
    born, late = _edge("A", "B"), _edge("B", "C")
    with MONITORS[flavour]({"b": born}, checkpoint_dir=tmp_path) as monitor:
        monitor.add_stream("s")
        monitor.apply("s", EdgeChange.insert(1, 2, "-", "A", "B"))
        monitor.apply("s", EdgeChange.insert(2, 3, "-", None, "C"))
        monitor.register_query("late", late)
        for pattern in (born, late):  # now needs a Z neighbour "s" lacks
            pattern.add_vertex(9, "Z")
            pattern.add_edge(0, 9, "-")
        live = monitor.matches()
        monitor.checkpoint()
    assert live == {("s", "b"), ("s", "late")}
    with load_monitor(tmp_path, MONITORS[flavour]) as restored:
        assert restored.matches() == live


@pytest.mark.parametrize("flavour", sorted(MONITORS))
def test_unknown_engine_is_refused_at_construction(flavour: str, tmp_path: Path) -> None:
    """Before anything is built or forked — and so is an export naming one."""
    with pytest.raises(ValueError, match="unknown engine 'matrx'"):
        MONITORS[flavour]({"ab": _edge("A", "B")}, method="matrx")
    with MONITORS[flavour]({"ab": _edge("A", "B")}, checkpoint_dir=tmp_path) as monitor:
        monitor.checkpoint()
    manifest = tmp_path / "manifest.json"
    export = json.loads(manifest.read_text())
    export["method"] = "matrx"
    manifest.write_text(json.dumps(export))
    with pytest.raises(ValueError, match="unknown engine 'matrx'"):
        load_monitor(tmp_path, MONITORS[flavour])


@pytest.mark.parametrize("flavour", sorted(MONITORS))
@pytest.mark.parametrize("depth_limit", [0, -1])
def test_depth_limit_below_one_is_refused_at_construction(flavour: str, depth_limit: int) -> None:
    """With no query to project and no stream to index, and before any
    worker is forked — not at the first ``add_stream`` or ``matches()``."""
    before = children()
    with pytest.raises(ValueError, match="depth_limit must be >= 1"):
        MONITORS[flavour]({}, depth_limit=depth_limit)
    assert children() == before


def _attribute_probes(attribute: str) -> list[tuple[str, str]]:
    """``(file, enclosing function)`` of every ``hasattr(x, attribute)``
    under ``src/repro``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "hasattr"
                    and len(node.args) == 2
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value == attribute
                ):
                    found.append((str(path.relative_to(SRC)), function.name))
    return found


def test_nothing_tells_the_two_monitors_apart_by_probing() -> None:
    """No shadow graph and no capability probe: the serving edge reads
    neither monitor's inboxes (``checkpoint`` is in the contract)."""
    for path in sorted(SRC.rglob("*.py")):
        assert "_shadow" not in path.read_text(), path
    assert _attribute_probes("inbox_depths") == []
    assert _attribute_probes("graph") == []
    assert _attribute_probes("checkpoint") == []
