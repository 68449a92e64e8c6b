"""``repro.obs.catalog.CATALOG`` and the mint sites agree, both ways.

RP018 checks the *consumers* (dashboard panels, SLO rules) against the
catalog; nothing checked the *emitters*, so a gauge could be minted at
four sites without a row, and a row could outlive its last minter.
Read from the AST, like RP018: every literal name passed to
``counter`` / ``gauge`` / ``histogram`` / ``span`` under ``src/repro``
(a span feeds the histogram ``<name>.seconds``), plus the f-string
names with one ``{engine}`` hole, enumerated over the join engines.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.join import ENGINES
from repro.obs.catalog import CATALOG

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
INSTRUMENTS = {"counter", "gauge", "histogram", "span"}


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


def minted() -> dict[str, list[str]]:
    """Metric name -> the ``file:line`` sites that mint it."""
    sites: dict[str, list[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            function = node.func
            called = getattr(function, "attr", None) or getattr(function, "id", "")
            instrument = called.lstrip("_")  # ``from .registry import counter as _counter``
            if instrument not in INSTRUMENTS:
                continue
            for name in _names(node.args[0]):
                if instrument == "span":
                    name += ".seconds"
                sites.setdefault(name, []).append(f"{path.relative_to(SRC)}:{node.lineno}")
    return sites


def test_every_minted_metric_has_a_catalog_row() -> None:
    missing = {name: sites for name, sites in minted().items() if name not in CATALOG}
    assert not missing, missing


def test_every_catalog_row_has_a_minter() -> None:
    assert sorted(set(CATALOG) - set(minted())) == []

