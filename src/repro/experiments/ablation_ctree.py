"""Ablation A7 — closure-tree indexing vs NPV flat filtering (static).

The paper's related work credits the closure-tree [8] with very
effective pruning at a relatively high per-candidate cost.  This
ablation builds both indexes over the AIDS-like DB and compares build
time, per-query filter time and candidate ratio (ground truth included
so the pruning quality is interpretable).
"""

from __future__ import annotations

from ..baselines.ctree import ClosureTree
from ..core.database import GraphDatabase
from ..isomorphism.vf2 import SubgraphMatcher
from .config import Scale, get_scale
from .harness import measure_static
from .reporting import FigureResult
from .workloads import build_aids_workload


def run(scale: Scale | None = None) -> FigureResult:
    """Execute the experiment at ``scale`` and return its rows."""
    scale = scale or get_scale()
    workload = build_aids_workload(scale)
    query_size = scale.static_query_sizes[min(1, len(scale.static_query_sizes) - 1)]
    queries = workload.query_sets[query_size]
    total_pairs = len(queries) * len(workload.graphs)

    result = FigureResult(
        "Ablation A7",
        "Closure-tree (CTree) vs NPV flat filter on the static DB",
    )

    indexes = {
        "NPV (flat)": lambda: GraphDatabase(workload.graphs, depth_limit=3),
        "closure-tree": lambda: ClosureTree(workload.graphs, fanout=4, level=2),
    }
    for name, build in indexes.items():
        _, (row,) = measure_static(build, {query_size: queries}, len(workload.graphs))
        result.add(
            index=name,
            build_s=row.build_seconds,
            mean_query_ms=row.mean_query_ms,
            candidate_ratio=row.candidate_ratio,
        )

    truth = 0
    for query in queries:
        truth += sum(
            1
            for graph in workload.graphs.values()
            if SubgraphMatcher(graph).is_subgraph(query)
        )
    result.add(index="(exact truth)", candidate_ratio=truth / total_pairs if total_pairs else 0.0)
    result.notes.append(
        "expected shape: CTree's pseudo-isomorphism prunes tighter than NPV "
        "at a higher per-query cost — the pruning/cost trade the paper's "
        "related work describes"
    )
    return result


def main() -> None:
    """Run at the environment-selected scale and print the table."""
    run().print()


if __name__ == "__main__":
    main()
