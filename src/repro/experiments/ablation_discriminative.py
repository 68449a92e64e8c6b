"""Ablation A5 — gIndex discriminative fragment selection.

gIndex keeps a fragment only when its posting list prunes substantially
beyond its sub-fragments' (ratio gamma).  This ablation measures the
trade: feature count, index build time, per-query time and candidate
ratio with and without selection (and across gamma values).
"""

from __future__ import annotations

from ..baselines.gindex import GIndex, GIndexConfig
from .config import Scale, get_scale
from .harness import measure_static
from .reporting import FigureResult
from .workloads import build_aids_workload


def run(scale: Scale | None = None) -> FigureResult:
    """Execute the experiment at ``scale`` and return its rows."""
    scale = scale or get_scale()
    workload = build_aids_workload(scale)
    query_size = scale.static_query_sizes[min(1, len(scale.static_query_sizes) - 1)]
    queries = {query_size: workload.query_sets[query_size]}

    result = FigureResult(
        "Ablation A5",
        "gIndex discriminative selection: feature count vs pruning power",
    )
    for gamma in (None, 1.25, 2.0):
        config = GIndexConfig(
            max_fragment_edges=min(4, scale.gindex1_static_max_edges),
            min_support_ratio=0.1,
            discriminative_ratio=gamma,
        )
        index, (row,) = measure_static(
            lambda: GIndex(workload.graphs, config), queries, len(workload.graphs)
        )
        result.add(
            gamma="all features" if gamma is None else f"gamma={gamma}",
            num_features=index.num_features,
            build_s=row.build_seconds,
            mean_query_ms=row.mean_query_ms,
            candidate_ratio=row.candidate_ratio,
        )
    result.notes.append(
        "expected shape: selection shrinks the feature set (and per-query "
        "feature-containment cost) with little loss of pruning power"
    )
    return result


def main() -> None:
    """Run at the environment-selected scale and print the table."""
    run().print()


if __name__ == "__main__":
    main()
