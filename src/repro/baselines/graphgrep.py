"""GraphGrep baseline (Shasha et al., reimplemented per its paper).

GraphGrep indexes every label path up to a maximum length (the paper's
experiments use the default 4 — longer enumerations "take too long") and
filters with count dominance on the path fingerprint.  It needs no
mining, which is why it is stream-friendly, but paths capture little
structure, which is why it reports "more than half of the total pairs"
as candidates in the paper's Figure 2/14.

For streams the affected graph's fingerprint is recomputed on change —
cheap relative to per-timestamp mining, mirroring the cost profile the
paper measures.
"""

from __future__ import annotations

from typing import Hashable, Mapping

from ..graph.labeled_graph import LabeledGraph
from .paths import PathFeature, fingerprint_dominates, path_fingerprint

QueryId = Hashable
StreamId = Hashable


class GraphGrepFilter:
    """Static-database form: one fingerprint per data graph, built once."""

    def __init__(
        self, data_graphs: Mapping[Hashable, LabeledGraph], max_length: int = 4
    ) -> None:
        self.max_length = max_length
        self._fingerprints = {
            graph_id: path_fingerprint(graph, max_length)
            for graph_id, graph in data_graphs.items()
        }

    def candidates_for(self, query: LabeledGraph) -> set:
        """Ids of data graphs whose fingerprint dominates the query's."""
        query_fingerprint = path_fingerprint(query, self.max_length)
        return {
            graph_id
            for graph_id, fingerprint in self._fingerprints.items()
            if fingerprint_dominates(fingerprint, query_fingerprint)
        }


class GraphGrepStreamFilter:
    """Continuous form: query fingerprints fixed, stream fingerprints
    recomputed whenever a stream graph changes."""

    def __init__(
        self, queries: Mapping[QueryId, LabeledGraph], max_length: int = 4
    ) -> None:
        self.max_length = max_length
        self._query_fingerprints: dict[QueryId, dict[PathFeature, int]] = {
            query_id: path_fingerprint(query, max_length)
            for query_id, query in queries.items()
        }
        self._stream_fingerprints: dict[StreamId, dict[PathFeature, int]] = {}

    def update_stream(self, stream_id: StreamId, graph: LabeledGraph) -> None:
        """Refresh the fingerprint of one stream graph."""
        self._stream_fingerprints[stream_id] = path_fingerprint(graph, self.max_length)

    def refresh(self, stream_graphs: Mapping[StreamId, LabeledGraph]) -> None:
        """Recompute every given stream's fingerprint (call per timestamp)."""
        for stream_id, graph in stream_graphs.items():
            self.update_stream(stream_id, graph)

    def remove_stream(self, stream_id: StreamId) -> None:
        """Forget a stream's fingerprint."""
        self._stream_fingerprints.pop(stream_id, None)

    def is_candidate(self, stream_id: StreamId, query_id: QueryId) -> bool:
        """Does the stream's fingerprint dominate the query's?"""
        return fingerprint_dominates(
            self._stream_fingerprints[stream_id], self._query_fingerprints[query_id]
        )

    def candidates(self) -> set[tuple]:
        """All currently passing (stream, query) pairs."""
        return {
            (stream_id, query_id)
            for stream_id in self._stream_fingerprints
            for query_id in self._query_fingerprints
            if self.is_candidate(stream_id, query_id)
        }
