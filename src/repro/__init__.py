"""repro — Continuous Subgraph Pattern Search over Graph Streams.

A full reproduction of Wang & Chen (ICDE 2009): Node-Neighbor Tree
filtering features with incremental maintenance, node-projected-vector
dominance joins (nested loop, dominated set cover, skyline with early
stop), the GraphGrep and gIndex comparison baselines, dataset
generators, and an experiment harness regenerating every figure of the
paper's evaluation.

Quickstart::

    from repro import StreamMonitor, LabeledGraph, EdgeChange

    pattern = LabeledGraph.from_vertices_and_edges(
        [(0, "A"), (1, "B"), (2, "C")], [(0, 1, "-"), (1, 2, "-")])
    monitor = StreamMonitor({"triangle-feed": pattern}, method="dsc")
    monitor.add_stream("net0")
    monitor.apply("net0", EdgeChange.insert(7, 8, "-", "A", "B"))
    monitor.apply("net0", EdgeChange.insert(8, 9, "-", None, "C"))
    assert monitor.matches() == {("net0", "triangle-feed")}

The root exports the filtering path only.  The serving edge
(:mod:`repro.serve.server`), the historical observability layers
(:mod:`repro.obs.timeline`, :mod:`repro.obs.slo`,
:mod:`repro.obs.flight`) and the offline tools
(:class:`repro.core.database.GraphDatabase`, :mod:`repro.isomorphism`)
are imported from their own modules, so a process that only filters
never loads them.
"""

from .core import (
    Confusion,
    MatchEvent,
    RunningStats,
    Stopwatch,
    StreamMonitor,
    candidate_ratio,
    compare_with_truth,
)
from .graph import (
    EdgeChange,
    GraphChangeOperation,
    GraphError,
    GraphStream,
    LabeledGraph,
)
from .join import QuerySet, make_engine
from .nnt import NNTIndex, project_graph
from .runtime import ShardedMonitor

__version__ = "1.0.0"

__all__ = [
    "Confusion",
    "EdgeChange",
    "GraphChangeOperation",
    "GraphError",
    "GraphStream",
    "LabeledGraph",
    "MatchEvent",
    "NNTIndex",
    "QuerySet",
    "RunningStats",
    "ShardedMonitor",
    "Stopwatch",
    "StreamMonitor",
    "candidate_ratio",
    "compare_with_truth",
    "make_engine",
    "project_graph",
    "__version__",
]
