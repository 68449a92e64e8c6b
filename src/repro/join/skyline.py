"""Skyline-with-early-stop join (Section IV-B.2 / Figure 11 of the paper).

Instead of proving that every query vector is dominated, this engine
hunts for one *bichromatic skyline point*: a query vector no stream
vector dominates.  Finding one prunes the pair immediately (the early
stop).  Three optimizations from the paper:

1. **Query side, maximality** — only the maximal query vectors (the
   monochromatic skyline of the query's vector set) are probed: if any
   query vector escapes domination, a maximal one does (transitivity).
2. **Query side, ordering** — maximal vectors are probed in fail-fast
   order: those that dominate many other query vectors (and carry more
   L1 mass) are the least likely to be dominated, so they go first.
3. **Stream side, subspace search** — per dimension the engine keeps the
   member set, its cardinality and (lazily cached) maximum.  A probe
   first compares against the per-dimension maxima (exceeding one proves
   skyline-ness without scanning), then scans only the members of the
   probe's minimum-cardinality non-zero dimension: any dominator must
   appear in every non-zero dimension of the probe.
"""

from __future__ import annotations

from typing import Mapping

from ..graph.labeled_graph import VertexId
from ..nnt.projection import Dimension, NPV, dominates, vector_mass
from .base import QueryChange, QueryId, QuerySet, StreamId, StreamNpvs, VectorCopyJoin
from .dominance import dominated_count, maximal_vectors


class _StreamState:
    """Per-stream per-dimension statistics."""

    __slots__ = ("vectors", "members", "max_cache", "version")

    def __init__(self, vectors: Mapping[VertexId, NPV]) -> None:
        #: The engine's copy of this stream, shared and only read here.
        self.vectors = vectors
        # members[dim] -> set of vertices with a non-zero entry in dim.
        self.members: dict[Dimension, set[VertexId]] = {}
        # max_cache[dim] -> cached maximum value in dim (None = stale).
        self.max_cache: dict[Dimension, int | None] = {}
        self.version = 0

    def max_of(self, dim: Dimension) -> int:
        cached = self.max_cache.get(dim)
        if cached is None:
            members = self.members.get(dim)
            cached = max((self.vectors[v][dim] for v in members), default=0) if members else 0
            self.max_cache[dim] = cached
        return cached


class SkylineEarlyStopJoin(VectorCopyJoin):
    """The ``Skyline`` engine (Procedure Skyline_with_Earlystop_Join)."""

    name = "skyline"

    def __init__(self, query_set: QuerySet) -> None:
        super().__init__(query_set)
        # Probe order per dedup group (member queries share it).
        self._probe_order: dict[int, list[int]] = {}
        for group in query_set.groups.values():
            self._rank_group(group.group_id, group.indices)
        self._streams: dict[StreamId, _StreamState] = {}
        # verdict cache: (stream, group) -> (stream version, verdict,
        # blame of a pruned verdict once asked for, else None)
        self._verdicts: dict[tuple, tuple[int, bool, str | None]] = {}

    def _rank_group(self, group_id: int, indices: list[int] | tuple[int, ...]) -> None:
        vectors = [self.query_set.vectors[i].vector for i in indices]
        maximal = maximal_vectors(vectors)
        ranked = sorted(
            maximal,
            key=lambda local: (
                -dominated_count(vectors[local], vectors),
                -vector_mass(vectors[local]),
            ),
        )
        self._probe_order[group_id] = [indices[local] for local in ranked]

    # -- query churn -------------------------------------------------------
    def _on_dims_added(self, dims: frozenset, stream_npvs: StreamNpvs) -> None:
        super()._on_dims_added(dims, stream_npvs)
        for state in self._streams.values():
            for vertex, vector in state.vectors.items():
                for dim in dims:
                    if dim in vector:
                        state.members.setdefault(dim, set()).add(vertex)
            state.version += 1

    def _on_group_added(self, change: QueryChange, stream_npvs: StreamNpvs) -> None:
        self._rank_group(change.group_id, change.indices)

    def _on_group_retired(self, change: QueryChange) -> None:
        del self._probe_order[change.group_id]
        self._verdicts = {
            key: v for key, v in self._verdicts.items() if key[1] != change.group_id
        }

    def _on_dims_removed(self, dims: frozenset) -> None:
        super()._on_dims_removed(dims)
        for state in self._streams.values():
            for dim in dims:
                state.members.pop(dim, None)
                state.max_cache.pop(dim, None)
            state.version += 1

    # -- stream lifecycle ------------------------------------------------
    def _on_stream_added(self, stream_id: StreamId, npvs: Mapping[VertexId, NPV]) -> None:
        super()._on_stream_added(stream_id, npvs)
        state = self._streams[stream_id] = _StreamState(self._vectors[stream_id])
        for vertex, vector in state.vectors.items():
            for dim in vector:
                state.members.setdefault(dim, set()).add(vertex)

    def _on_stream_removed(self, stream_id: StreamId) -> None:
        del self._streams[stream_id]
        self._verdicts = {key: v for key, v in self._verdicts.items() if key[0] != stream_id}

    # -- NPV evolution ----------------------------------------------------
    def on_vertex_added(self, stream_id: StreamId, vertex: VertexId) -> None:
        super().on_vertex_added(stream_id, vertex)
        self._streams[stream_id].version += 1

    def on_vertex_removed(self, stream_id: StreamId, vertex: VertexId) -> None:
        state = self._streams[stream_id]
        for dim in state.vectors[vertex]:
            self._drop_member(state, dim, vertex)
        state.version += 1
        super().on_vertex_removed(stream_id, vertex)

    def _value_changed(
        self, stream_id: StreamId, vertex: VertexId, dim: Dimension, old: int, new: int
    ) -> None:
        """Keep the copy, ``dim``'s members and cached maximum, and bump
        the verdict-cache version: one bump per net-changed entry."""
        super()._value_changed(stream_id, vertex, dim, old, new)
        state = self._streams[stream_id]
        state.version += 1
        if not new:
            self._drop_member(state, dim, vertex)
            return
        state.members.setdefault(dim, set()).add(vertex)
        cached = state.max_cache.get(dim)
        if new > old:
            if cached is not None and new > cached:
                state.max_cache[dim] = new
        elif cached is not None and old == cached:
            state.max_cache[dim] = None  # the maximum may have shrunk

    def _drop_member(self, state: _StreamState, dim: Dimension, vertex: VertexId) -> None:
        members = state.members.get(dim)
        if members is not None:
            members.discard(vertex)
            if not members:
                del state.members[dim]
                state.max_cache.pop(dim, None)
            else:
                state.max_cache[dim] = None

    # -- results ----------------------------------------------------------
    def is_candidate(self, stream_id: StreamId, query_id: QueryId) -> bool:
        state = self._streams[stream_id]
        group_id = self.query_set.group_of[query_id]
        key = (stream_id, group_id)
        cached = self._verdicts.get(key)
        if cached is not None and cached[0] == state.version:
            return cached[1]
        verdict = self._evaluate(state, group_id)
        self._verdicts[key] = (state.version, verdict, None)
        return verdict

    def _blame(self, stream_id: StreamId, query_id: QueryId) -> str:
        """The base definition, memoised beside the verdict it explains:
        computed once per fresh evaluation (group members share it)."""
        key = (stream_id, self.query_set.group_of[query_id])
        version, verdict, blame = self._verdicts[key]
        if blame is None:
            blame = super()._blame(stream_id, query_id)
            self._verdicts[key] = (version, verdict, blame)
        return blame

    def _evaluate(self, state: _StreamState, group_id: int) -> bool:
        for qv_index in self._probe_order[group_id]:
            probe = self.query_set.vectors[qv_index].vector
            if not probe:
                # Trivial all-zero probe: dominated by any existing vertex.
                if not state.vectors:
                    return False
                continue
            best_dim: Dimension | None = None
            best_cardinality = None
            for dim, value in probe.items():
                members = state.members.get(dim)
                cardinality = len(members) if members else 0
                if cardinality == 0 or value > state.max_of(dim):
                    # No stream vector can dominate the probe in this dim:
                    # the probe is a bichromatic skyline point, and the
                    # pair is pruned (the early stop).
                    return False
                if best_cardinality is None or cardinality < best_cardinality:
                    best_cardinality = cardinality
                    best_dim = dim
            assert best_dim is not None
            vectors = state.vectors
            if not any(dominates(vectors[v], probe) for v in state.members[best_dim]):
                # Every probe dimension is individually covered (the max
                # checks above passed), just never by one vector at once.
                return False
        return True
