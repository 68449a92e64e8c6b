"""Golden files for the figure drivers: every row of every driver in
``repro.experiments.ALL_FIGURES``, with the timing columns dropped.

A timing column is one whose name ends in ``_ms``, ``_us`` or ``_s``;
everything else (candidate ratios, counts, labels) is deterministic for
a given scale profile and must match the committed file exactly.

Regenerate after a change that is *meant* to move a figure's numbers::

    PYTHONPATH=src python -m tests.figure_goldens smoke default

writes ``tests/fixtures/figures/expected/<figure>_v1.json`` (smoke) and
``<figure>_default_v1.json`` (default).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.experiments import ALL_FIGURES, Scale, get_scale
from repro.experiments.reporting import FigureResult

EXPECTED_DIR = Path(__file__).parent / "fixtures" / "figures" / "expected"
TIMING_SUFFIXES = ("_ms", "_us", "_s")


def golden_rows(result: FigureResult) -> list[dict]:
    """The result's rows without timing columns, as JSON would hold them."""
    rows = [
        {column: value for column, value in row.items() if not column.endswith(TIMING_SUFFIXES)}
        for row in result.rows
    ]
    return json.loads(json.dumps(rows))


def golden_path(figure: str, scale: Scale) -> Path:
    """Where ``figure``'s golden at ``scale`` lives (smoke has no infix)."""
    infix = "" if scale.name == "smoke" else f"_{scale.name}"
    return EXPECTED_DIR / f"{figure}{infix}_v1.json"


def load_golden(figure: str, scale: Scale) -> list[dict]:
    """The committed rows of ``figure`` at ``scale``."""
    return json.loads(golden_path(figure, scale).read_text(encoding="utf-8"))["rows"]


def write_goldens(scale: Scale) -> None:
    """Run every driver at ``scale`` and write its golden file."""
    EXPECTED_DIR.mkdir(parents=True, exist_ok=True)
    for figure, driver in sorted(ALL_FIGURES.items()):
        document = {"figure": figure, "scale": scale.name, "rows": golden_rows(driver.run(scale))}
        golden_path(figure, scale).write_text(
            json.dumps(document, indent=1) + "\n", encoding="utf-8"
        )


if __name__ == "__main__":
    for name in sys.argv[1:] or ["smoke"]:
        write_goldens(get_scale(name))
