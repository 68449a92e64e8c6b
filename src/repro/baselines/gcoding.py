"""GCoding-style spectral filtering baseline.

The paper's related work cites GCoding (Zou et al.): encode each vertex
by spectral properties of its local neighborhood and filter with
eigenvalue dominance — effective, but "the computation of eigenvalue
features is too costly for stream setting".  We implement a sound
spectral vertex signature so that claim can be *measured* (ablation A4):

For a vertex ``u`` and radius ``r``, take the ball ``B(u, r)`` (vertices
within distance r).  For every unordered vertex-label pair ``{a, b}``
the signature stores the largest eigenvalue of the adjacency matrix of
the ball's subgraph restricted to vertices labeled ``a`` or ``b`` (and,
under the key ``ALL``, of the whole ball).

Soundness: a subgraph embedding ``f`` maps ``B_Q(u, r)`` injectively
into ``B_G(f(u), r)`` (graph distances only shrink under embeddings) and
preserves labels, so each restricted adjacency matrix of the query ball
is entrywise dominated by a zero-padded principal submatrix of the
corresponding target matrix — and the largest eigenvalue of a
nonnegative symmetric matrix is monotone under both operations.  Hence
``lambda_max`` per key can only grow from ``u`` to ``f(u)``, and
dominance filtering (with a small numerical tolerance) admits every true
match.  This is property-tested in ``tests/test_gcoding.py``.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Mapping

import numpy as np

from ..graph.labeled_graph import LabeledGraph, VertexId

ALL = ("*", "*")
EPSILON = 1e-9  # numerical slack so float noise cannot cause false negatives

Signature = dict  # key (label, label) or ALL -> lambda_max (float)


def ball(graph: LabeledGraph, center: VertexId, radius: int) -> set[VertexId]:
    """Vertices within graph distance ``radius`` of ``center``."""
    seen = {center}
    frontier = deque([(center, 0)])
    while frontier:
        vertex, distance = frontier.popleft()
        if distance == radius:
            continue
        for neighbor in graph.neighbors(vertex):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append((neighbor, distance + 1))
    return seen


def _lambda_max(graph: LabeledGraph, vertices: list[VertexId]) -> float:
    """Largest adjacency eigenvalue of the induced subgraph on ``vertices``."""
    if len(vertices) < 2:
        return 0.0
    index = {vertex: i for i, vertex in enumerate(vertices)}
    matrix = np.zeros((len(vertices), len(vertices)))
    for vertex in vertices:
        i = index[vertex]
        for neighbor in graph.neighbors(vertex):
            j = index.get(neighbor)
            if j is not None:
                matrix[i, j] = 1.0
    if not matrix.any():
        return 0.0
    return float(np.linalg.eigvalsh(matrix)[-1])


def spectral_signature(graph: LabeledGraph, vertex: VertexId, radius: int = 2) -> Signature:
    """Per-label-pair largest eigenvalues of the vertex's ball (sparse)."""
    members = sorted(ball(graph, vertex, radius), key=str)
    signature: Signature = {}
    total = _lambda_max(graph, members)
    if total > 0:
        signature[ALL] = total
    labels = sorted({str(graph.vertex_label(v)) for v in members})
    for i, label_a in enumerate(labels):
        for label_b in labels[i:]:
            restricted = [
                v for v in members if str(graph.vertex_label(v)) in (label_a, label_b)
            ]
            value = _lambda_max(graph, restricted)
            if value > 0:
                signature[(label_a, label_b)] = value
    return signature


def signature_dominates(big: Signature, small: Signature) -> bool:
    """Spectral dominance with numerical tolerance (sound direction)."""
    for key, value in small.items():
        if big.get(key, 0.0) < value - EPSILON:
            return False
    return True


def graph_signatures(graph: LabeledGraph, radius: int = 2) -> dict[VertexId, Signature]:
    """Spectral signature of every vertex of ``graph``."""
    return {vertex: spectral_signature(graph, vertex, radius) for vertex in graph.vertices()}


class GCodingFilter:
    """Pair filter: every query vertex needs a same-labeled data vertex
    whose spectral signature dominates its own."""

    def __init__(self, query: LabeledGraph, radius: int = 2) -> None:
        self.query = query
        self.radius = radius
        self._query_signatures = graph_signatures(query, radius)

    def admits_signatures(
        self, data_graph: LabeledGraph, data_signatures: Mapping[VertexId, Signature]
    ) -> bool:
        """Filter verdict against precomputed data-side signatures."""
        by_label: dict = {}
        for vertex, signature in data_signatures.items():
            by_label.setdefault(data_graph.vertex_label(vertex), []).append(signature)
        for query_vertex, query_signature in self._query_signatures.items():
            label = self.query.vertex_label(query_vertex)
            if not any(
                signature_dominates(candidate, query_signature)
                for candidate in by_label.get(label, ())
            ):
                return False
        return True

    def admits(self, data_graph: LabeledGraph) -> bool:
        """True iff the pair (query, data_graph) survives the filter."""
        return self.admits_signatures(data_graph, graph_signatures(data_graph, self.radius))


class GCodingStreamFilter:
    """Continuous form: signatures of a stream graph are recomputed on
    change (there is no incremental eigenvalue maintenance — the cost
    the paper's related-work section points at)."""

    def __init__(self, queries: Mapping[Hashable, LabeledGraph], radius: int = 2) -> None:
        self.radius = radius
        self._filters = {
            query_id: GCodingFilter(query, radius) for query_id, query in queries.items()
        }
        self._stream_graphs: dict = {}
        self._stream_signatures: dict = {}

    def update_stream(self, stream_id: Hashable, graph: LabeledGraph) -> None:
        """Recompute one stream graph's signatures."""
        self._stream_graphs[stream_id] = graph
        self._stream_signatures[stream_id] = graph_signatures(graph, self.radius)

    def refresh(self, stream_graphs: Mapping[Hashable, LabeledGraph]) -> None:
        """Recompute every given stream's signatures (call per timestamp)."""
        for stream_id, graph in stream_graphs.items():
            self.update_stream(stream_id, graph)

    def remove_stream(self, stream_id: Hashable) -> None:
        """Forget a stream entirely."""
        self._stream_graphs.pop(stream_id, None)
        self._stream_signatures.pop(stream_id, None)

    def is_candidate(self, stream_id: Hashable, query_id: Hashable) -> bool:
        """Does the pair currently pass the spectral filter?"""
        return self._filters[query_id].admits_signatures(
            self._stream_graphs[stream_id], self._stream_signatures[stream_id]
        )

    def candidates(self) -> set[tuple]:
        """All currently passing (stream, query) pairs."""
        return {
            (stream_id, query_id)
            for stream_id in self._stream_graphs
            for query_id in self._filters
            if self.is_candidate(stream_id, query_id)
        }
