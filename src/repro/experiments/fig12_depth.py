"""Figure 12 — self-test on the maximum depth of the node-neighbor tree.

For both static datasets (AIDS-like and synthetic), sweep the NNT depth
and report the candidate ratio after NPV filtering.  Expected shape:
candidate size drops sharply up to depth ~3 and flattens beyond — the
paper concludes "it suffices to use depth at most 3".
"""

from __future__ import annotations

from ..core.database import GraphDatabase
from .config import Scale, get_scale
from .harness import measure_static
from .reporting import FigureResult
from .workloads import StaticWorkload, build_aids_workload, build_synthetic_static_workload


def _sweep(workload: StaticWorkload, scale: Scale, result: FigureResult, query_size: int) -> None:
    for depth in scale.depth_sweep:
        _, (row,) = measure_static(
            lambda: GraphDatabase(workload.graphs, depth_limit=depth),
            {query_size: workload.query_sets[query_size]},
            len(workload.graphs),
        )
        result.add(
            dataset=workload.name,
            depth=depth,
            query_size=f"Q{query_size}",
            candidate_ratio=row.candidate_ratio,
        )


def run(scale: Scale | None = None) -> FigureResult:
    """Execute the experiment at ``scale`` and return its rows."""
    scale = scale or get_scale()
    result = FigureResult(
        "Figure 12",
        "Candidate ratio vs NNT depth (static datasets, NPV filter)",
    )
    query_size = scale.static_query_sizes[min(1, len(scale.static_query_sizes) - 1)]
    _sweep(build_aids_workload(scale), scale, result, query_size)
    _sweep(build_synthetic_static_workload(scale), scale, result, query_size)
    result.notes.append(
        "expected shape: steep drop to depth 3, little gain beyond (paper "
        "fixes l=3)"
    )
    return result


def main() -> None:
    """Run at the environment-selected scale and print the table."""
    run().print()


if __name__ == "__main__":
    main()
