"""Nested-loop dominance join — the paper's baseline search strategy.

On every candidate probe it compares each query vector against the
stream's vectors (:class:`~repro.join.base.VectorCopyJoin`) pair by pair.
No cross-timestamp state is reused, which is precisely why the improved
engines of the paper exist.
"""

from __future__ import annotations

from ..nnt.projection import dominates
from .base import QueryId, StreamId, VectorCopyJoin


class NestedLoopJoin(VectorCopyJoin):
    """Baseline ``NL`` engine (Section IV-B)."""

    name = "nl"

    def is_candidate(self, stream_id: StreamId, query_id: QueryId) -> bool:
        stream_vectors = list(self._vectors[stream_id].values())
        vectors = self.query_set.vectors
        return all(
            any(dominates(v, vectors[index].vector) for v in stream_vectors)
            for index in self.query_set.by_query[query_id]
        )
