"""Ablation A1 — NPV dominance vs Lemma 4.1 branch compatibility.

The branch-compatibility test (multiset containment of root-path
signatures) is strictly stronger than NPV dominance, but costs a full
NNT walk and multiset comparison per vertex pair.  This ablation
quantifies the trade-off the paper makes when it projects NNTs into
vectors: how many extra candidates does the projection admit, and how
much cheaper is it per pair?
"""

from __future__ import annotations

from ..core.database import GraphDatabase
from ..nnt.branches import BranchFilter
from .config import Scale, get_scale
from .harness import measure_static
from .reporting import FigureResult
from .workloads import build_synthetic_static_workload


class _BranchIndex:
    """Lemma 4.1 as a static filter: each query's branch filter is built
    and tried against every graph (nothing is indexed ahead)."""

    def __init__(self, graphs: dict) -> None:
        self.graphs = graphs

    def candidates_for(self, query) -> set:
        branch = BranchFilter(query, depth_limit=3)
        return {graph_id for graph_id, graph in self.graphs.items() if branch.admits(graph)}


def run(scale: Scale | None = None) -> FigureResult:
    """Execute the experiment at ``scale`` and return its rows."""
    scale = scale or get_scale()
    workload = build_synthetic_static_workload(scale)
    # The branch filter rebuilds stream-side profiles per pair — cap the
    # DB slice so the ablation stays seconds-scale.
    db_ids = list(workload.graphs)[: max(20, scale.static_db_size // 5)]
    graphs = {graph_id: workload.graphs[graph_id] for graph_id in db_ids}
    query_size = scale.static_query_sizes[min(1, len(scale.static_query_sizes) - 1)]
    queries = workload.query_sets[query_size][: scale.static_queries_per_set]

    result = FigureResult(
        "Ablation A1",
        "NPV dominance vs branch compatibility (Lemma 4.1): pruning vs cost",
    )
    filters = {
        "NPV dominance": lambda: GraphDatabase(graphs, depth_limit=3),
        "branch compatibility": lambda: _BranchIndex(graphs),
    }
    for name, build in filters.items():
        _, (row,) = measure_static(build, {query_size: queries}, len(graphs))
        result.add(
            filter=name,
            candidate_ratio=row.candidate_ratio,
            time_per_pair_us=row.mean_query_ms / len(graphs) * 1000,
        )
    result.notes.append(
        "branch compatibility is never weaker (its candidates are a subset "
        "of NPV's) but costs far more per pair — the projection trade-off"
    )
    return result


def main() -> None:
    """Run at the environment-selected scale and print the table."""
    run().print()


if __name__ == "__main__":
    main()
