"""``repro.obs.catalog.CATALOG`` and the mint sites agree, both ways.

The *consumers* (dashboard panels, SLO rules) read only catalogued
names; nothing checked the *emitters*, so a gauge could be minted at
four sites without a row, and a row could outlive its last minter.
Read from the AST: every literal name passed to
``counter`` / ``gauge`` / ``histogram`` / ``span`` under ``src/repro``
(a span feeds the histogram ``<name>.seconds``), plus the f-string
names with one ``{engine}`` hole, enumerated over the join engines.

The catalog is also where a metric is *defined*: a mint site passes a
name and labels, and what a scrape says about a series is its row.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from repro import EdgeChange, LabeledGraph, ShardedMonitor, StreamMonitor, obs
from repro.join import ENGINES
from repro.obs.catalog import CATALOG
from repro.obs.exposition import metric_name, render_prometheus

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
INSTRUMENTS = {"counter", "gauge", "histogram", "span"}
METRIC_NAME = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")


def _names(argument: ast.expr) -> list[str]:
    """The metric names one first argument can stand for ([] when it is
    computed: registry pass-throughs, ``f"{span}.seconds"``)."""
    if isinstance(argument, ast.Constant) and isinstance(argument.value, str):
        return [argument.value]
    if isinstance(argument, ast.JoinedStr) and isinstance(argument.values[0], ast.Constant):
        holes = [v for v in argument.values if isinstance(v, ast.FormattedValue)]
        assert len(holes) == 1, ast.unparse(argument)
        return [
            "".join(
                part.value if isinstance(part, ast.Constant) else engine
                for part in argument.values
            )
            for engine in sorted(ENGINES)
        ]
    return []


def _instrument_calls():
    """``(file:line, call node, instrument)`` of every ``counter`` /
    ``gauge`` / ``histogram`` / ``span`` call under ``src/repro``."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            function = node.func
            called = getattr(function, "attr", None) or getattr(function, "id", "")
            instrument = called.lstrip("_")  # ``from .registry import counter as _counter``
            if instrument in INSTRUMENTS:
                yield f"{path.relative_to(SRC)}:{node.lineno}", node, instrument


def minted() -> dict[str, list[str]]:
    """Metric name -> the ``file:line`` sites that mint it."""
    sites: dict[str, list[str]] = {}
    for site, node, instrument in _instrument_calls():
        for name in _names(node.args[0]):
            if instrument == "span":
                name += ".seconds"
            sites.setdefault(name, []).append(site)
    return sites


def test_every_minted_metric_has_a_catalog_row() -> None:
    missing = {name: sites for name, sites in minted().items() if name not in CATALOG}
    assert not missing, missing


def test_every_catalog_row_has_a_minter() -> None:
    assert sorted(set(CATALOG) - set(minted())) == []


def test_mint_sites_pass_a_name_and_labels_only() -> None:
    """Help text and buckets are written once, in the catalog: no
    ``help=`` / ``buckets=`` and no second positional string (the
    registry shortcuts hand their own parameters through by name)."""
    restating = [
        site
        for site, node, instrument in _instrument_calls()
        if instrument != "span"
        and (
            any(keyword.arg in {"help", "buckets"} for keyword in node.keywords)
            or any(isinstance(arg, (ast.Constant, ast.JoinedStr)) for arg in node.args[1:])
        )
    ]
    assert restating == []


def uncatalogued(source: str) -> list[str]:
    """``line: name`` of each dotted-name string literal in ``source``,
    docstrings aside, that is not a ``CATALOG`` key: a name nothing mints
    evaluates against no data, so its panel is empty and its SLO "ok"."""
    nodes = list(ast.walk(ast.parse(source)))
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {
        id(node.body[0].value)
        for node in nodes if isinstance(node, scopes) and ast.get_docstring(node, False)
    }
    return [
        f"{node.lineno}: {node.value}" for node in nodes
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings
        and METRIC_NAME.match(node.value) and node.value not in CATALOG
    ]


@pytest.mark.parametrize("consumer", ["dashboard.py", "obs/slo.py"])
def test_every_consumed_metric_name_is_catalogued(consumer: str) -> None:
    assert uncatalogued((SRC / consumer).read_text()) == []


def test_an_uncatalogued_consumed_name_is_found(tmp_path: Path) -> None:
    planted = tmp_path / "dashboard.py"
    planted.write_text('"""serve.commit.nope"""\nPANELS = ["serve.commit.nope"]\n')
    assert uncatalogued(planted.read_text()) == ["2: serve.commit.nope"]


def _edge(a: str, b: str) -> LabeledGraph:
    return LabeledGraph.from_vertices_and_edges([(0, a), (1, b)], [(0, 1, "-")])


@pytest.mark.parametrize("workers", [0, 2])
def test_a_scrape_carries_the_catalog_text_of_every_series_it_touched(workers: int) -> None:
    """One scripted run with one live registration: every catalogued
    series in the (merged) summary renders its catalog help, the
    span-fed ``*.seconds`` histograms included, and a registration is
    counted once per process that ran it."""
    previous = obs.set_registry(obs.Registry())
    was_enabled = obs.enabled()
    obs.enable()
    try:
        if workers:
            monitor = ShardedMonitor({"ab": _edge("A", "B")}, num_workers=workers)
        else:
            monitor = StreamMonitor({"ab": _edge("A", "B")})
        with monitor:
            monitor.add_stream("s")
            monitor.apply("s", EdgeChange.insert(1, 2, "-", "A", "B"))
            monitor.register_query("bc", _edge("B", "C"))
            monitor.apply("s", EdgeChange.insert(2, 3, "-", None, "C"))
            assert monitor.matches() == {("s", "ab"), ("s", "bc")}
            summary = monitor.obs_summary()
    finally:
        obs.set_registry(previous)
        if not was_enabled:
            obs.disable()

    assert summary["monitor.register_query.seconds"]["count"] == max(workers, 1)
    if workers:
        assert summary["runtime.register_query.seconds"]["count"] == 1
    scrape = render_prometheus(summary).splitlines()
    touched = {key.split("{", 1)[0] for key in summary}
    assert touched <= set(CATALOG), touched - set(CATALOG)
    assert any(name.endswith(".seconds") for name in touched)
    for name in sorted(touched):
        kind, text = CATALOG[name][:2]
        metric = metric_name(name) + ("_total" if kind == "counter" else "")
        assert f"# HELP {metric} {text}" in scrape, name
