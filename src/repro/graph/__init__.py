"""Graph substrate: labeled graphs, change operations, streams, text IO."""

from .labeled_graph import DEFAULT_EDGE_LABEL, GraphError, LabeledGraph, edge_key
from .operations import (
    DELETE,
    INSERT,
    EdgeChange,
    GraphChangeOperation,
    apply_change,
    apply_operation,
    check_batch,
    diff_graphs,
)
from .stream import GraphStream

__all__ = [
    "DEFAULT_EDGE_LABEL",
    "DELETE",
    "INSERT",
    "EdgeChange",
    "GraphChangeOperation",
    "GraphError",
    "GraphStream",
    "LabeledGraph",
    "apply_change",
    "apply_operation",
    "check_batch",
    "diff_graphs",
    "edge_key",
]
