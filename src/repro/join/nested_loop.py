"""Nested-loop dominance join — the paper's baseline search strategy.

On every candidate probe it compares each query vector against the
stream's mirrored vectors (:class:`~repro.join.base.JoinEngine` keeps
them) pair by pair.  No cross-timestamp state is reused, which is
precisely why the improved engines of the paper exist.
"""

from __future__ import annotations

from .. import obs
from ..nnt.projection import dominates
from .base import JoinEngine, QueryId, StreamId


class NestedLoopJoin(JoinEngine):
    """Baseline ``NL`` engine (Section IV-B)."""

    name = "nl"

    def is_candidate(self, stream_id: StreamId, query_id: QueryId) -> bool:
        self._obs_checks.inc()
        stream_vectors = list(self._mirror[stream_id].values())
        for index in self.query_set.by_query[query_id]:
            query_vector = self.query_set.vectors[index].vector
            if not any(dominates(v, query_vector) for v in stream_vectors):
                if obs.enabled():
                    obs.quality.record_pruned(
                        self.name,
                        obs.quality.blame_dimension(query_vector, stream_vectors),
                    )
                return False
        return True
