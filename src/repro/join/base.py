"""Shared query-side preprocessing and the join-engine interface.

A *join engine* answers, continuously, which (stream, query) pairs
currently satisfy the Lemma 4.2 dominance condition: every node-projected
vector of the query is dominated by some vector of the stream graph.  The
paper fixes the query set up front (Definition 2.7); here queries are
first-class dynamic objects — :meth:`JoinEngine.add_query` snapshots the
live stream NPVs into the newcomer's dominance state and
:meth:`JoinEngine.remove_query` retires it, both without rebuilding the
engine.  Engines react to stream-side NPV deltas pushed by
:class:`repro.nnt.NNTIndex` and can report the candidate pair set at any
timestamp.

The stream side is the same for every engine and lives here once:
:class:`JoinEngine` keeps the one mirror of each stream's NPVs
(``_mirror``), folds every delta batch into it, and hands the engine one
``_value_changed(stream, vertex, dim, old, new)`` per net delta plus the
stream and vertex lifecycle events.  An engine is its query-side
algorithm (``matrix``, whose dense rows are its mirror, overrides the
stream side instead).

Dominance only depends on a query's projected NPV multiset, so queries
with identical projections are deduplicated into one *query group*: the
group owns a single set of dominance rows/counters and every member
query fans the group verdict out at :meth:`JoinEngine.candidates` time.
Engines are therefore keyed by ``group_id`` internally while the public
`is_candidate(stream_id, query_id)` surface is unchanged.

Engines only ever consult dimensions that occur in some query vector
("subspace search within the non-zero dimensions of the query vectors",
Section IV-B.2) — stream activity on other dimensions cannot change any
dominance verdict and is dropped at the boundary.  The dimension
universe is reference-counted across groups, so it grows and shrinks
exactly with query churn, and the mirror with it: ``add_query``
backfills a new dimension from the live NPVs, ``remove_query`` purges a
retired one.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Hashable, Mapping

from .. import obs
from ..graph.labeled_graph import LabeledGraph, VertexId
from ..nnt.builder import project_graph
from ..nnt.projection import Dimension, DimensionScheme, NPV, PAPER_SCHEME

QueryId = Hashable
StreamId = Hashable
Pair = tuple[StreamId, QueryId]

#: One coalesced delta batch: net non-zero NPV changes keyed by
#: ``(vertex, dimension)``, as flushed by
#: :meth:`repro.nnt.incremental.NNTIndex.batch`.
BatchDeltas = Mapping[tuple[VertexId, Dimension], int]

#: Live stream NPVs handed to :meth:`JoinEngine.add_query` so the engine
#: can backfill its mirror on dimensions the newcomer introduced (deltas
#: on dimensions outside the universe were dropped at the boundary).
StreamNpvs = Mapping[StreamId, Mapping[VertexId, NPV]]

#: Canonical form of a query's projected NPV multiset — the dedup key.
Fingerprint = tuple


@dataclass(frozen=True)
class QueryVector:
    """One query vertex's NPV, flattened into the engine-wide vector list.

    ``query_id`` is the query that founded the record's group (kept for
    diagnostics); dominance state is shared by every group member.
    """

    index: int
    query_id: QueryId
    vertex: VertexId
    vector: NPV
    group: int = 0
    num_dims: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "num_dims", len(self.vector))


class QueryGroup:
    """One fingerprint-dedup group: the unit of engine-side dominance state."""

    __slots__ = ("group_id", "fingerprint", "indices", "members")

    def __init__(self, group_id: int, fingerprint: Fingerprint, indices: list[int]) -> None:
        self.group_id = group_id
        self.fingerprint = fingerprint
        #: Indices into :attr:`QuerySet.vectors` (shared by reference with
        #: every member's ``by_query`` entry).
        self.indices = indices
        #: Queries currently fanning this group's verdict out.
        self.members: list[QueryId] = []


@dataclass(frozen=True)
class QueryChange:
    """What one :meth:`QuerySet.add_query` / :meth:`~QuerySet.remove_query`
    did — engines key their incremental reaction off these fields."""

    query_id: QueryId
    group_id: int
    #: Add only: the query founded a brand-new group (no fingerprint hit).
    group_added: bool = False
    #: Remove only: the last member left and the group was retired.
    group_retired: bool = False
    #: The group's vector indices (new on add, retired on remove).
    indices: tuple[int, ...] = ()
    #: Dimensions that entered the universe with this change.
    added_dims: frozenset = frozenset()
    #: Dimensions that left the universe with this change.
    removed_dims: frozenset = frozenset()


class QuerySet:
    """Dynamic set of query graphs, projected to NPVs and deduplicated
    into fingerprint groups as they register."""

    def __init__(
        self,
        queries: Mapping[QueryId, LabeledGraph],
        depth_limit: int = 3,
        scheme: DimensionScheme = PAPER_SCHEME,
    ) -> None:
        self.depth_limit = depth_limit
        self.scheme = scheme
        self.queries: dict[QueryId, LabeledGraph] = {}
        #: One slot per query vector.  A live group's indices are stable;
        #: a retired group's slots keep their stale records (no live group
        #: references them) until the next new group takes them over, so
        #: the list is bounded by the peak live vector count.
        self.vectors: list[QueryVector] = []
        #: Slots of retired groups, a heap: lowest slot is reused first.
        self._free_slots: list[int] = []
        #: Per query, the *shared* index list of its group.
        self.by_query: dict[QueryId, list[int]] = {}
        self.groups: dict[int, QueryGroup] = {}
        self.group_of: dict[QueryId, int] = {}
        self.dimension_universe: set[Dimension] = set()
        self._dim_refs: dict[Dimension, int] = {}
        self._fingerprints: dict[Fingerprint, int] = {}
        self._next_group = 0
        for query_id, graph in queries.items():
            self.add_query(query_id, graph)

    # -- dynamic membership ------------------------------------------------
    def add_query(self, query_id: QueryId, graph: LabeledGraph) -> QueryChange:
        """Project and register one query, deduplicating by fingerprint;
        the set keeps a copy of ``graph``."""
        if query_id in self.queries:
            raise ValueError(f"query {query_id!r} is already monitored")
        projected = sorted(
            project_graph(graph, self.depth_limit, self.scheme).items(),
            key=lambda kv: str(kv[0]),
        )
        fingerprint: Fingerprint = tuple(
            sorted(
                tuple(sorted((repr(dim), value) for dim, value in vector.items()))
                for _, vector in projected
            )
        )
        self.queries[query_id] = graph.copy()  # the caller may reuse theirs
        group_id = self._fingerprints.get(fingerprint)
        added_dims: set[Dimension] = set()
        group_added = group_id is None
        if group_id is None:
            group_id = self._next_group
            self._next_group += 1
            indices: list[int] = []
            for vertex, vector in projected:
                reused = bool(self._free_slots)
                index = heappop(self._free_slots) if reused else len(self.vectors)
                record = QueryVector(index, query_id, vertex, vector, group_id)
                if reused:
                    self.vectors[index] = record
                else:
                    self.vectors.append(record)
                indices.append(index)
                for dim in vector:
                    if not self._dim_refs.get(dim):
                        added_dims.add(dim)
                    self._dim_refs[dim] = self._dim_refs.get(dim, 0) + 1
            self.dimension_universe |= added_dims
            group = QueryGroup(group_id, fingerprint, indices)
            self.groups[group_id] = group
            self._fingerprints[fingerprint] = group_id
        else:
            group = self.groups[group_id]
        group.members.append(query_id)
        self.group_of[query_id] = group_id
        self.by_query[query_id] = group.indices
        return QueryChange(
            query_id=query_id,
            group_id=group_id,
            group_added=group_added,
            indices=tuple(group.indices),
            added_dims=frozenset(added_dims),
        )

    def remove_query(self, query_id: QueryId) -> QueryChange:
        """Deregister one query, retiring its group when it was the last
        member and shrinking the dimension universe by refcount."""
        if query_id not in self.queries:
            raise KeyError(f"query {query_id!r} is not monitored")
        del self.queries[query_id]
        del self.by_query[query_id]
        group_id = self.group_of.pop(query_id)
        group = self.groups[group_id]
        group.members.remove(query_id)
        removed_dims: set[Dimension] = set()
        retired = not group.members
        indices = tuple(group.indices)
        if retired:
            del self.groups[group_id]
            del self._fingerprints[group.fingerprint]
            for index in group.indices:
                heappush(self._free_slots, index)
                for dim in self.vectors[index].vector:
                    self._dim_refs[dim] -= 1
                    if not self._dim_refs[dim]:
                        del self._dim_refs[dim]
                        removed_dims.add(dim)
            self.dimension_universe -= removed_dims
        return QueryChange(
            query_id=query_id,
            group_id=group_id,
            group_retired=retired,
            indices=indices,
            removed_dims=frozenset(removed_dims),
        )

    # -- introspection -----------------------------------------------------
    def __len__(self) -> int:
        return len(self.queries)

    def query_ids(self) -> list[QueryId]:
        """Ids of the registered query graphs."""
        return list(self.queries)

    @property
    def num_groups(self) -> int:
        """Distinct dominance-row groups currently live (the dedup win:
        ``len(query_set) - num_groups`` queries share another's rows)."""
        return len(self.groups)

    def live_vector_count(self) -> int:
        """Query-vector rows engines currently maintain (post-dedup)."""
        return sum(len(group.indices) for group in self.groups.values())


class JoinEngine(ABC):
    """Continuous dominance join between registered streams and the query set.

    Only this class writes the stream-side mirror.  An engine overrides
    :meth:`is_candidate` and whichever no-op ``_on_*`` /
    :meth:`_value_changed` hooks its algorithm reacts to.
    """

    #: Short engine name (the :data:`repro.join.ENGINES` key); used to
    #: label this engine's observability instruments.
    name: str = "engine"

    def __init__(self, query_set: QuerySet) -> None:
        self.query_set = query_set
        #: stream -> vertex -> NPV restricted to the dimension universe.
        self._mirror: dict[StreamId, dict[VertexId, NPV]] = {}
        #: The pairs :meth:`candidates` last returned, each keyed by itself.
        self._answer: dict[Pair, Pair] = {}
        # Cached once so the per-probe cost is one gated ``inc()``, not a
        # registry lookup; every concrete ``is_candidate`` bumps this.
        self._obs_checks = obs.counter(f"join.{self.name}.dominance_checks")

    # -- query lifecycle ---------------------------------------------------
    def add_query(
        self,
        query_id: QueryId,
        graph: LabeledGraph,
        stream_npvs: StreamNpvs | None = None,
    ) -> QueryChange:
        """Register a standing query against the live streams.

        ``stream_npvs`` is a snapshot view of every registered stream's
        current NPVs, used to backfill the mirror on dimensions the
        newcomer introduced (their deltas were dropped at the boundary
        while no query referenced them).  The order is fixed: dimensions
        first (so the mirror is complete), then the new group's
        dominance state, both before the change is visible to
        :meth:`candidates`.  A stream missing from ``stream_npvs`` is
        refused before anything changes: the newcomer would miss its pairs.
        """
        npvs = stream_npvs or {}
        for stream_id in self.stream_ids():
            if stream_id not in npvs:
                raise ValueError(f"add_query needs the NPVs of stream {stream_id!r}")
        change = self.query_set.add_query(query_id, graph)
        if change.added_dims:
            dims = change.added_dims
            for stream_id, vectors in self._mirror.items():
                live = npvs.get(stream_id, {})
                for vertex, vector in vectors.items():
                    source = live.get(vertex)
                    if source:
                        for dim in dims:
                            value = source.get(dim, 0)
                            if value:
                                vector[dim] = value
            self._on_dims_added(dims)
        if change.group_added:
            self._on_group_added(change, npvs)
        return change

    def remove_query(self, query_id: QueryId) -> QueryChange:
        """Deregister a query, retiring group state when it was the last
        member and purging the mirror of dimensions that left the universe."""
        change = self.query_set.remove_query(query_id)
        if change.group_retired:
            self._on_group_retired(change)
        if change.removed_dims:
            dims = change.removed_dims
            for vectors in self._mirror.values():
                for vector in vectors.values():
                    for dim in dims:
                        vector.pop(dim, None)
            self._on_dims_removed(dims)
        return change

    # -- stream lifecycle ------------------------------------------------
    def register_stream(self, stream_id: StreamId, npvs: Mapping[VertexId, NPV]) -> None:
        """Attach a stream with its current per-vertex NPVs."""
        if stream_id in self._mirror:
            raise ValueError(f"stream {stream_id!r} is already registered")
        universe = self.query_set.dimension_universe
        vectors = self._mirror[stream_id] = {
            vertex: {dim: value for dim, value in vector.items() if dim in universe}
            for vertex, vector in npvs.items()
        }
        self._on_stream_added(stream_id, vectors)

    def remove_stream(self, stream_id: StreamId) -> None:
        """Detach a stream entirely."""
        del self._mirror[stream_id]
        self._on_stream_removed(stream_id)

    def stream_ids(self) -> list[StreamId]:
        """Ids of the currently attached streams."""
        return list(self._mirror)

    # -- NPV evolution (forwarded from the NNT index) ---------------------
    def on_vertex_added(self, stream_id: StreamId, vertex: VertexId) -> None:
        """A vertex (empty NPV) joined the stream graph."""
        self._mirror[stream_id][vertex] = {}
        self._on_vertex_added(stream_id, vertex)

    def on_vertex_removed(self, stream_id: StreamId, vertex: VertexId) -> None:
        """A vertex left the stream graph.  The index purged its pending
        deltas, so the mirror still holds its last vector: the engine
        gets that vector to retire.  An unknown vertex is a ``KeyError``."""
        last_vector = self._mirror[stream_id].pop(vertex)
        self._on_vertex_removed(stream_id, vertex, last_vector)

    def batch_update(self, stream_id: StreamId, deltas: BatchDeltas) -> None:
        """One coalesced batch of net NPV deltas for a stream.

        Every delta is non-zero and every referenced vertex is currently
        registered (vertices removed mid-batch had their queued deltas
        purged at removal time).  Deltas outside the dimension universe
        are dropped; each other one moves the mirror and reaches the
        engine as one :meth:`_value_changed` transition.
        """
        universe = self.query_set.dimension_universe
        vectors = self._mirror[stream_id]
        value_changed = self._value_changed
        for (vertex, dim), delta in deltas.items():
            if dim not in universe:
                continue
            vector = vectors[vertex]
            old = vector.get(dim, 0)
            new = old + delta
            if new:
                vector[dim] = new
            else:
                del vector[dim]
            value_changed(stream_id, vertex, dim, old, new)

    # -- engine hooks (override what the algorithm reacts to) --------------
    def _on_stream_added(self, stream_id: StreamId, vectors: Mapping[VertexId, NPV]) -> None:
        """A stream was attached; ``vectors`` is its (filtered) mirror."""

    def _on_stream_removed(self, stream_id: StreamId) -> None:
        """A stream was detached."""

    def _on_vertex_added(self, stream_id: StreamId, vertex: VertexId) -> None:
        """A vertex with an empty mirror vector joined the stream."""

    def _on_vertex_removed(self, stream_id: StreamId, vertex: VertexId, last_vector: NPV) -> None:
        """A vertex left the stream; ``last_vector`` is what it mirrored."""

    def _value_changed(
        self, stream_id: StreamId, vertex: VertexId, dim: Dimension, old: int, new: int
    ) -> None:
        """One mirrored NPV entry moved from ``old`` to ``new`` (``dim`` is
        in the universe; the mirror already holds ``new``)."""

    def _on_dims_added(self, dims: frozenset) -> None:
        """New universe dimensions; the mirror is already backfilled."""

    def _on_group_added(self, change: QueryChange, stream_npvs: StreamNpvs) -> None:
        """A new dominance group: build its state against current streams."""

    def _on_group_retired(self, change: QueryChange) -> None:
        """The group's last member left: retire its rows and counters."""

    def _on_dims_removed(self, dims: frozenset) -> None:
        """Dimensions left the universe; the mirror is already purged."""

    # -- results ----------------------------------------------------------
    @abstractmethod
    def is_candidate(self, stream_id: StreamId, query_id: QueryId) -> bool:
        """Does the pair currently pass the dominance filter?"""

    def candidates(self) -> set[Pair]:
        """All currently passing (stream, query) pairs, as a fresh set.

        A pair that also passed at the previous call is the *same tuple
        object* as then, so a caller that keeps answers (a session's
        last poll, a recording of every tick) holds one tuple per pair,
        not one per pair per kept answer.
        """
        with obs.span("join.candidates", engine=self.name):
            previous = self._answer
            answer: dict[Pair, Pair] = {}
            for stream_id in self.stream_ids():
                for query_id in self.query_set.query_ids():
                    if self.is_candidate(stream_id, query_id):
                        pair = (stream_id, query_id)
                        pair = previous.get(pair, pair)
                        answer[pair] = pair
            # Replaced, never patched: a pair of a removed stream or a
            # retired query is gone after the next call.
            self._answer = answer
            return set(answer)


class StreamListenerAdapter:
    """Adapts one stream's :class:`~repro.nnt.incremental.NPVListener`
    callbacks onto a join engine by tagging them with the stream id."""

    def __init__(self, engine: JoinEngine, stream_id: StreamId) -> None:
        self.engine = engine
        self.stream_id = stream_id

    def on_vertex_added(self, vertex: VertexId) -> None:
        """Forward with this adapter's stream id."""
        self.engine.on_vertex_added(self.stream_id, vertex)

    def on_vertex_removed(self, vertex: VertexId) -> None:
        """Forward with this adapter's stream id."""
        self.engine.on_vertex_removed(self.stream_id, vertex)

    def on_batch_update(self, deltas: BatchDeltas) -> None:
        """Forward one coalesced delta batch with this adapter's stream id."""
        self.engine.batch_update(self.stream_id, deltas)
