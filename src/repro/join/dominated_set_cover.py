"""Dominated-set-cover join (Theorem 4.1 / Figure 8 of the paper).

Query vectors are projected once into each of their non-zero single
dimensions and kept sorted there.  For every stream vector the engine
derives, per dimension, a *position counter* (how many query values it is
>= of, recovered by binary search) and, per query vector, a *dominant
counter* (in how many of that query vector's non-zero dimensions it
currently dominates it).  The dominant counters of one stream vertex are
one flat typed row with a slot per :attr:`QuerySet.vectors` index, zero
meaning "dominates it in no dimension".  A query vector whose dominant
counter reaches its non-zero-dimension count is dominated in the full
space; a (stream, query) pair is a candidate when every vector of the
query is dominated by some vector of the stream — tracked by per-group
uncovered counts (queries with identical projected fingerprints share
one group, :class:`repro.join.base.QueryGroup`) so the answer set is
read off in O(streams x queries).

When one NPV entry changes, only the query vectors whose sorted position
the stream value crossed have their counters touched — this is the
incremental update illustrated around Figure 9.  Query churn is equally
incremental: a new group splices its values into the sorted projections
(no counters move — insertion cannot change any other vector's dominant
count) and scans each stream's live NPVs once to seed its own slots,
lengthening the rows only when the query set had no retired slot to hand
it; a retired group filters its entries back out and zeroes its slots,
so the next group to take them over starts from zero in every row.

The counters are all it keeps: stream NPVs are read only to seed and to
blame, and a removed vertex is retired from its own row.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import compress
from operator import eq
from typing import Mapping

from ..graph.labeled_graph import VertexId
from ..nnt.projection import Dimension, NPV
from .base import JoinEngine, QueryChange, QueryId, QuerySet, StreamId, StreamNpvs, blame_dimension


#: Type code of a dominant-counter row: 4 bytes a slot, far above any
#: vector's ``num_dims``; a count outside it raises ``OverflowError``.
_COUNTER = "I"


def _zero_row(slots: int) -> array:
    return array(_COUNTER, (0,)) * slots  # repeat allocates exactly


class _StreamState:
    """All per-stream counters of the DSC engine."""

    __slots__ = ("dominant", "cover", "uncovered")

    def __init__(self, uncovered: dict) -> None:
        # dominant[vertex][qv_index] -> in how many of qv's non-zero dims
        # this stream vertex currently dominates it; every row is as long
        # as the engine's ``_required`` and zero in every slot no live
        # group owns.
        self.dominant: dict[VertexId, array] = {}
        # cover[qv_index] -> number of stream vertices fully dominating it.
        self.cover: dict[int, int] = {}
        # uncovered[group_id] -> number of the group's (non-trivial) query
        # vectors not yet dominated by any stream vertex.
        self.uncovered: dict[int, int] = uncovered


class DominatedSetCoverJoin(JoinEngine):
    """The ``DSC`` engine (Procedure Dominated_Set_Cover_Join)."""

    name = "dsc"

    def __init__(self, query_set: QuerySet) -> None:
        super().__init__(query_set)
        # Sorted per-dimension projections of the query vectors.
        self._dim_values: dict[Dimension, list[int]] = {}
        self._dim_entries: dict[Dimension, list[int]] = {}
        # Indexed by qv slot, as long as every dominant row; a retired
        # slot keeps a harmless stale entry until a new group rewrites it.
        self._required: list[int] = [record.num_dims for record in query_set.vectors]
        # Trivial (all-zero) query vectors are dominated by any existing
        # vertex; they are excluded from the counter machinery and handled
        # by a non-empty-stream test instead.
        self._trivial_per_group: dict[int, int] = {}
        self._base_uncovered: dict[int, int] = {}
        self._streams: dict[StreamId, _StreamState] = {}
        for group in query_set.groups.values():
            self._index_group(group.group_id, group.indices)

    def _index_group(self, group_id: int, indices: list[int] | tuple[int, ...]) -> None:
        """Splice one group's vectors into the sorted projections and set
        up its trivial/uncovered baselines (no stream counters touched)."""
        trivial = 0
        for index in indices:
            record = self.query_set.vectors[index]
            if record.num_dims == 0:
                trivial += 1
            for dim, value in record.vector.items():
                values = self._dim_values.setdefault(dim, [])
                entries = self._dim_entries.setdefault(dim, [])
                pos = bisect_right(values, value)
                values.insert(pos, value)
                entries.insert(pos, index)
        self._trivial_per_group[group_id] = trivial
        self._base_uncovered[group_id] = len(indices) - trivial

    # -- query churn -------------------------------------------------------
    def _on_group_added(self, change: QueryChange, stream_npvs: StreamNpvs) -> None:
        grown = len(self.query_set.vectors) - len(self._required)
        if grown > 0:
            # No retired slot was left to reuse: lengthen every row.
            self._required.extend([0] * grown)
            pad = _zero_row(grown)
            for state in self._streams.values():
                for row in state.dominant.values():
                    row.extend(pad)
        for index in change.indices:
            self._required[index] = self.query_set.vectors[index].num_dims
        self._index_group(change.group_id, change.indices)
        base = self._base_uncovered[change.group_id]
        records = [
            self.query_set.vectors[index]
            for index in change.indices
            if self.query_set.vectors[index].num_dims > 0
        ]
        for stream_id, state in self._streams.items():
            state.uncovered[change.group_id] = base
            vectors = stream_npvs[stream_id]
            for record in records:
                required = record.num_dims
                for vertex, vector in vectors.items():
                    count = sum(
                        1
                        for dim, value in record.vector.items()
                        if vector.get(dim, 0) >= value
                    )
                    if count:
                        state.dominant[vertex][record.index] = count
                        if count == required:
                            self._cover_gained(state, record.index)

    def _on_group_retired(self, change: QueryChange) -> None:
        retired = set(change.indices)
        dims_touched: set[Dimension] = set()
        for index in retired:
            dims_touched.update(self.query_set.vectors[index].vector)
        for dim in dims_touched:
            kept = [
                (value, index)
                for value, index in zip(self._dim_values[dim], self._dim_entries[dim])
                if index not in retired
            ]
            if kept:
                self._dim_values[dim] = [value for value, _ in kept]
                self._dim_entries[dim] = [index for _, index in kept]
            else:
                del self._dim_values[dim]
                del self._dim_entries[dim]
        for state in self._streams.values():
            for row in state.dominant.values():
                for index in retired:
                    row[index] = 0
            for index in retired:
                state.cover.pop(index, None)
            state.uncovered.pop(change.group_id, None)
        del self._trivial_per_group[change.group_id]
        del self._base_uncovered[change.group_id]

    # -- stream lifecycle ------------------------------------------------
    def _on_stream_added(self, stream_id: StreamId, npvs: Mapping[VertexId, NPV]) -> None:
        state = self._streams[stream_id] = _StreamState(dict(self._base_uncovered))
        dim_values, dim_entries = self._dim_values, self._dim_entries
        width = len(self._required)
        # The count a slot's vector is covered at; trivial and retired
        # slots (no sorted entry, so always 0) can never reach -1.
        targets = [required or -1 for required in self._required]
        # One pass per vertex: what Thm 4.1's counters read after every
        # value rose from 0, with each row written once.  A dimension no
        # query has (no sorted projection) is skipped.
        for vertex, vector in npvs.items():
            counts = [0] * width
            for dim, value in vector.items():
                values = dim_values.get(dim)
                if values is not None:
                    for index in dim_entries[dim][: bisect_right(values, value)]:
                        counts[index] += 1
            row = state.dominant[vertex] = array(_COUNTER, counts)
            for index in compress(range(width), map(eq, row, targets)):
                self._cover_gained(state, index)

    def _on_stream_removed(self, stream_id: StreamId) -> None:
        del self._streams[stream_id]

    # -- NPV evolution ----------------------------------------------------
    def on_vertex_added(self, stream_id: StreamId, vertex: VertexId) -> None:
        self._streams[stream_id].dominant[vertex] = _zero_row(len(self._required))

    def on_vertex_removed(self, stream_id: StreamId, vertex: VertexId) -> None:
        """Drop the row, losing each cover it gave (count == required)."""
        state = self._streams[stream_id]
        row = state.dominant.pop(vertex)
        for qv_index, required in enumerate(self._required):
            if row[qv_index] == required > 0:
                self._cover_lost(state, qv_index)

    # -- counter maintenance ----------------------------------------------
    def _value_changed(
        self, stream_id: StreamId, vertex: VertexId, dim: Dimension, old: int, new: int
    ) -> None:
        """Walk the sorted query projection of ``dim`` between the old and
        new positions of this stream value, adjusting the dominant counters
        in the row of the vertex whose value moved: one transition, hence
        at most one pair of bisects, per net-changed entry."""
        values = self._dim_values[dim]
        old_pos = bisect_right(values, old) if old > 0 else 0
        new_pos = bisect_right(values, new) if new > 0 else 0
        if new_pos == old_pos:
            return
        state = self._streams[stream_id]
        row = state.dominant[vertex]
        entries = self._dim_entries[dim]
        required = self._required
        if new_pos > old_pos:
            for qv_index in entries[old_pos:new_pos]:
                count = row[qv_index] + 1
                row[qv_index] = count
                if count == required[qv_index]:
                    self._cover_gained(state, qv_index)
        else:
            for qv_index in entries[new_pos:old_pos]:
                count = row[qv_index]
                if count == required[qv_index]:
                    self._cover_lost(state, qv_index)
                row[qv_index] = count - 1

    def _cover_gained(self, state: _StreamState, qv_index: int) -> None:
        count = state.cover.get(qv_index, 0) + 1
        state.cover[qv_index] = count
        if count == 1:
            state.uncovered[self.query_set.vectors[qv_index].group] -= 1

    def _cover_lost(self, state: _StreamState, qv_index: int) -> None:
        count = state.cover[qv_index]
        if count == 1:
            del state.cover[qv_index]
            state.uncovered[self.query_set.vectors[qv_index].group] += 1
        else:
            state.cover[qv_index] = count - 1

    # -- results ----------------------------------------------------------
    def is_candidate(self, stream_id: StreamId, query_id: QueryId) -> bool:
        group_id = self.query_set.group_of[query_id]
        if self._streams[stream_id].uncovered[group_id]:
            return False
        # Trivial query vectors only fail on an empty stream.
        return not (self._trivial_per_group[group_id] and not self._streams[stream_id].dominant)

    def _blame(self, stream_id: StreamId, query_id: QueryId) -> str:
        """The base definition, with the first undominated query vector
        read off the cover counts instead of a dominance scan."""
        state = self._streams[stream_id]
        for qv_index in self.query_set.by_query[query_id]:
            if not state.cover.get(qv_index) and (self._required[qv_index] or not state.dominant):
                return blame_dimension(
                    self.query_set.vectors[qv_index].vector, self._vectors[stream_id].values()
                )
        return "combination"
