"""Benchmarks regenerating the paper's Figures 2, 12-17 and ablations A1-A8.

Run:  pytest benchmarks/bench_figures.py --benchmark-only -s
      REPRO_SCALE=smoke pytest benchmarks/bench_figures.py -q

One case per driver in :data:`repro.experiments.ALL_FIGURES` (ids
``fig02`` ... ``ablation_a8``).  Each replays its driver once
(``pedantic``, one round — the drivers are internally repeated
measurements already) and archives the rendered table as
``benchmarks/results/<driver module>.txt`` so the numbers survive
pytest's output capture.  Scale comes from ``REPRO_SCALE`` (default
profile unless overridden).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import ALL_FIGURES, get_scale

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.mark.parametrize("figure", ALL_FIGURES)
def test_figure(benchmark, figure):
    driver = ALL_FIGURES[figure]
    scale = get_scale()
    result = benchmark.pedantic(lambda: driver.run(scale), rounds=1, iterations=1)
    rendered = result.render()
    RESULTS_DIR.mkdir(exist_ok=True)
    name = driver.__name__.rpartition(".")[2]
    (RESULTS_DIR / f"{name}.txt").write_text(rendered + "\n", encoding="utf-8")
    print()
    print(rendered)
