"""Ablation A6 — tree features vs graph features (the Tree+Delta idea).

The paper's reference [28] (Zhao et al., "tree + delta <= graph") argues
that frequent *trees* are far cheaper to mine than frequent graphs while
retaining most pruning power.  This ablation mines both feature spaces
over the same DB and compares mining time, feature count and candidate
ratio.
"""

from __future__ import annotations

from ..baselines.gindex import GIndex, GIndexConfig
from .config import Scale, get_scale
from .harness import measure_static
from .reporting import FigureResult
from .workloads import build_synthetic_static_workload


def run(scale: Scale | None = None) -> FigureResult:
    """Execute the experiment at ``scale`` and return its rows."""
    scale = scale or get_scale()
    workload = build_synthetic_static_workload(scale)
    query_size = scale.static_query_sizes[min(1, len(scale.static_query_sizes) - 1)]
    queries = {query_size: workload.query_sets[query_size]}
    max_edges = min(5, scale.gindex1_static_max_edges)

    result = FigureResult(
        "Ablation A6",
        "Feature space: frequent trees vs frequent graphs (Tree+Delta)",
    )
    for trees_only in (False, True):
        config = GIndexConfig(
            max_fragment_edges=max_edges,
            min_support_ratio=0.1,
            trees_only=trees_only,
        )
        index, (row,) = measure_static(
            lambda: GIndex(workload.graphs, config), queries, len(workload.graphs)
        )
        result.add(
            features="trees only" if trees_only else "all graphs",
            num_features=index.num_features,
            mining_s=row.build_seconds,
            candidate_ratio=row.candidate_ratio,
        )
    result.notes.append(
        "expected shape: the tree feature space is smaller and cheaper to "
        "mine, with candidate ratios close to the full graph feature space"
    )
    return result


def main() -> None:
    """Run at the environment-selected scale and print the table."""
    run().print()


if __name__ == "__main__":
    main()
