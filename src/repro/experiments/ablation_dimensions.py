"""Ablation A2 — including edge labels in the projection dimensions.

The paper's Definition 4.1 keys dimensions on ``(depth, node label,
node label)`` only.  On edge-labeled data (bonds, in the AIDS-like set)
extending the key with the edge label yields a strictly finer — still
sound — projection.  This ablation measures the candidate-ratio gain and
the dimension-universe growth that the finer scheme costs.
"""

from __future__ import annotations

from ..core.database import GraphDatabase
from ..nnt.trails import project_graph
from ..nnt.projection import DimensionScheme
from .config import Scale, get_scale
from .harness import measure_static
from .reporting import FigureResult
from .workloads import build_aids_workload


def run(scale: Scale | None = None) -> FigureResult:
    """Execute the experiment at ``scale`` and return its rows."""
    scale = scale or get_scale()
    workload = build_aids_workload(scale)
    result = FigureResult(
        "Ablation A2",
        "Dimension scheme: (depth, labels) vs (depth, labels, edge label)",
    )
    for include_edge_labels in (False, True):
        scheme = DimensionScheme(include_edge_label=include_edge_labels)
        universe = set()
        for graph in workload.graphs.values():
            for vector in project_graph(graph, 3, scheme).values():
                universe.update(vector)
        _, rows = measure_static(
            lambda: GraphDatabase(workload.graphs, depth_limit=3, scheme=scheme),
            workload.query_sets,
            len(workload.graphs),
        )
        for row in rows:
            result.add(
                scheme="with edge labels" if include_edge_labels else "paper (node labels)",
                query_size=row.query_size,
                candidate_ratio=row.candidate_ratio,
                num_dimensions=len(universe),
            )
    result.notes.append(
        "edge-labeled dimensions can only shrink candidate sets (finer, "
        "still sound) at the price of a larger dimension universe"
    )
    return result


def main() -> None:
    """Run at the environment-selected scale and print the table."""
    run().print()


if __name__ == "__main__":
    main()
