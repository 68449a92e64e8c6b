"""Incremental GraphGrep: maintain path fingerprints under edge changes.

The classic GraphGrep stream filter recomputes a graph's whole path
fingerprint per timestamp, which explodes on dense graphs (our Figure 15
measures it).  But an edge change only affects the vertex-simple paths
*through that edge*: inserting ``(a, b)`` adds exactly the paths of the
form ``P1 · (a,b) · P2`` where ``P1`` ends at ``a``, ``P2`` starts at
``b``, the two halves are vertex-disjoint, and the total length is at
most ``L``; deleting it removes the same set.  This module enumerates
those composite paths directly and applies count deltas to a maintained
fingerprint — the same numbers as a full recompute (property-tested),
at churn-proportional cost.

Deltas must be computed against a consistent graph state: insertion
deltas *after* the edge is in the graph, deletion deltas *before* it is
removed; :meth:`IncrementalGraphGrep.apply_change` handles the ordering.
"""

from __future__ import annotations

from typing import Hashable, Mapping

from ..graph.labeled_graph import LabeledGraph, VertexId
from ..graph.operations import DELETE, EdgeChange, GraphChangeOperation, apply_change
from .paths import DEFAULT_NUM_BUCKETS, _bucket_of, _canonical_feature, fingerprint_dominates, path_fingerprint

QueryId = Hashable
StreamId = Hashable


def _half_paths(
    graph: LabeledGraph,
    start: VertexId,
    max_length: int,
    forbidden: VertexId,
) -> list[tuple[tuple, tuple]]:
    """All vertex-simple paths of length 0..max_length starting at
    ``start`` that avoid ``forbidden``; returned as (id tuple, label
    tuple) pairs, both starting at ``start``."""
    out: list[tuple[tuple, tuple]] = []

    def extend(ids: list, labels: tuple, visited: set) -> None:
        out.append((tuple(ids), labels))
        if len(ids) - 1 >= max_length:
            return
        for neighbor in graph.neighbors(ids[-1]):
            if neighbor in visited or neighbor == forbidden:
                continue
            visited.add(neighbor)
            ids.append(neighbor)
            extend(ids, labels + (graph.vertex_label(neighbor),), visited)
            ids.pop()
            visited.discard(neighbor)

    extend([start], (graph.vertex_label(start),), {start})
    return out


def paths_through_edge(
    graph: LabeledGraph, a: VertexId, b: VertexId, max_length: int
) -> list[tuple]:
    """Canonical label features of every vertex-simple path of length
    <= max_length that uses edge (a, b), each occurrence listed once.

    The edge must currently be present in ``graph``.
    """
    features: list[tuple] = []
    left_halves = _half_paths(graph, a, max_length - 1, forbidden=b)
    for left_ids, left_labels in left_halves:
        remaining = max_length - 1 - (len(left_ids) - 1)
        left_set = set(left_ids)
        for right_ids, right_labels in _half_paths(graph, b, remaining, forbidden=a):
            if left_set & set(right_ids):
                # Any overlap breaks vertex-simplicity of the composite
                # path (a is never in the right half, b never in the left).
                continue
            # A vertex-simple path crosses the edge exactly once, so each
            # undirected path has exactly one (left, right) decomposition:
            # count it unconditionally (path_fingerprint's once-per-path
            # convention is preserved).
            features.append(_canonical_feature(left_labels[::-1] + right_labels))
    return features


class IncrementalGraphGrep:
    """A GraphGrep stream filter whose fingerprints evolve with the
    graph instead of being recomputed per timestamp."""

    def __init__(
        self,
        queries: Mapping[QueryId, LabeledGraph],
        max_length: int = 4,
        num_buckets: int | None = DEFAULT_NUM_BUCKETS,
    ) -> None:
        self.max_length = max_length
        self.num_buckets = num_buckets
        self._query_fingerprints = {
            query_id: path_fingerprint(query, max_length, num_buckets=num_buckets)
            for query_id, query in queries.items()
        }
        self._graphs: dict[StreamId, LabeledGraph] = {}
        self._fingerprints: dict[StreamId, dict] = {}

    # ------------------------------------------------------------------
    def add_stream(self, stream_id: StreamId, initial: LabeledGraph | None = None) -> None:
        """Attach a stream; its fingerprint is computed once, then evolves."""
        graph = initial.copy() if initial is not None else LabeledGraph()
        self._graphs[stream_id] = graph
        self._fingerprints[stream_id] = path_fingerprint(
            graph, self.max_length, num_buckets=self.num_buckets
        )

    def remove_stream(self, stream_id: StreamId) -> None:
        """Detach a stream."""
        del self._graphs[stream_id]
        del self._fingerprints[stream_id]

    def graph(self, stream_id: StreamId) -> LabeledGraph:
        """The stream's current graph (live — treat as read-only)."""
        return self._graphs[stream_id]

    # ------------------------------------------------------------------
    def apply(self, stream_id: StreamId, operation: GraphChangeOperation) -> None:
        """Apply a timestamp batch (deletions first, then insertions)."""
        for change in operation.sequentialized():
            self.apply_change(stream_id, change)

    def apply_change(self, stream_id: StreamId, change: EdgeChange) -> None:
        """Apply one edge change, updating the fingerprint by deltas."""
        graph = self._graphs[stream_id]
        fingerprint = self._fingerprints[stream_id]
        if change.op == DELETE:
            # Delta against the state *with* the edge, then remove it.
            self._bump(
                fingerprint,
                paths_through_edge(graph, change.u, change.v, self.max_length),
                -1,
            )
            labels_before = {
                vertex: graph.vertex_label(vertex) for vertex in (change.u, change.v)
            }
            apply_change(graph, change)
            for vertex, label in labels_before.items():
                if not graph.has_vertex(vertex):
                    # Dropped (isolated) vertices lose their length-0 path.
                    self._bump(fingerprint, [_canonical_feature((label,))], -1)
        else:
            created = [
                vertex for vertex in (change.u, change.v) if not graph.has_vertex(vertex)
            ]
            apply_change(graph, change)
            for vertex in created:
                self._bump(
                    fingerprint,
                    [_canonical_feature((graph.vertex_label(vertex),))],
                    +1,
                )
            self._bump(
                fingerprint,
                paths_through_edge(graph, change.u, change.v, self.max_length),
                +1,
            )

    def _bump(self, fingerprint: dict, features: list, delta: int) -> None:
        for feature in features:
            key: object = feature
            if self.num_buckets is not None:
                key = _bucket_of(feature, self.num_buckets)
            value = fingerprint.get(key, 0) + delta
            if value:
                fingerprint[key] = value
            else:
                fingerprint.pop(key, None)

    # ------------------------------------------------------------------
    def is_candidate(self, stream_id: StreamId, query_id: QueryId) -> bool:
        """Does the stream's fingerprint dominate the query's?"""
        return fingerprint_dominates(
            self._fingerprints[stream_id], self._query_fingerprints[query_id]
        )

    def matches(self) -> set[tuple]:
        """All currently passing (stream, query) pairs (the monitors'
        name for the poll)."""
        return {
            (stream_id, query_id)
            for stream_id in self._fingerprints
            for query_id in self._query_fingerprints
            if self.is_candidate(stream_id, query_id)
        }

    def fingerprint(self, stream_id: StreamId) -> dict:
        """The maintained fingerprint (for tests/diagnostics)."""
        return self._fingerprints[stream_id]
