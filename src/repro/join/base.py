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

The stream side is the index's: :class:`JoinEngine` keeps a reference
to the NPVs each stream was registered with (``NNTIndex.npvs`` when
served) and hands the engine one ``_value_changed(stream, vertex, dim,
old, new)`` per payload entry, ``(delta, new)``, with no copy to learn
``old`` from.  ``dsc`` keeps only counters, ``matrix`` dense rows, and
``nl``/``skyline`` a universe-restricted copy (:class:`VectorCopyJoin`).

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
exactly with query churn: ``add_query`` hands the engine the live NPVs
to seed a new dimension or group from.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from heapq import heappop, heappush
from typing import Any, Hashable, Iterable, Mapping, NamedTuple

from .. import obs
from ..graph.labeled_graph import LabeledGraph, VertexId
from ..nnt.trails import project_graph
from ..nnt.projection import Dimension, DimensionScheme, NPV, PAPER_SCHEME, dominates

QueryId = Hashable
StreamId = Hashable
Pair = tuple[StreamId, QueryId]

#: One coalesced delta batch: ``(net delta, new value)`` of every entry
#: that changed, keyed by ``(vertex, dimension)``, as flushed by
#: :meth:`repro.nnt.incremental.NNTIndex.batch`.
BatchDeltas = Mapping[tuple[VertexId, Dimension], tuple[int, int]]

#: Live stream NPVs handed to :meth:`JoinEngine.add_query`, which a new
#: group (or a copy on new dimensions) is seeded from.
StreamNpvs = Mapping[StreamId, Mapping[VertexId, NPV]]

#: Canonical form of a query's projected NPV multiset — the dedup key.
Fingerprint = tuple


def blame_dimension(
    query_vector: Mapping[Any, int], stream_vectors: Iterable[Mapping[Any, int]]
) -> str:
    """Which dimension killed a failed dominance check, as a string.

    A stream vector dominates the query vector only if it covers it on
    *every* dimension, so when no stream vector dominates there are two
    cases: some query dimension is not covered by any stream vector
    alone (we blame the first such dimension in sorted-by-``str``
    order), or every dimension is individually coverable but never by
    one vector at once (``"combination"``).  Diagnostic only; never
    consulted by the filter itself.
    """
    vectors = list(stream_vectors)
    for dim in sorted(query_vector, key=str):
        need = query_vector[dim]
        if not any(vector.get(dim, 0) >= need for vector in vectors):
            return str(dim)
    return "combination"


class QueryVector(NamedTuple):
    """One query vertex's NPV, flattened into the engine-wide vector list.

    ``query_id`` is the query that founded the record's group (kept for
    diagnostics); dominance state is shared by every group member.
    ``num_dims`` is ``len(vector)``.
    """

    index: int
    query_id: QueryId
    vertex: VertexId
    vector: NPV
    group: int
    num_dims: int


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


class QueryChange(NamedTuple):
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
                record = QueryVector(index, query_id, vertex, vector, group_id, len(vector))
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

    The registered NPV mappings are read, never written, and only
    :meth:`candidates` records filter telemetry.  An engine overrides
    :meth:`is_candidate` (a pure verdict) and whichever no-op hooks its
    algorithm reacts to; it may override :meth:`_blame` only to compute
    the same answer cheaper.
    """

    #: Short engine name (the :data:`repro.join.ENGINES` key); used to
    #: label this engine's observability instruments.
    name: str = "engine"

    def __init__(self, query_set: QuerySet) -> None:
        self.query_set = query_set
        #: stream -> vertex -> NPV this engine reads: the mapping the
        #: stream was registered with, unless the engine keeps a copy.
        self._vectors: dict[StreamId, Mapping[VertexId, NPV]] = {}
        #: The pairs :meth:`candidates` last returned, each keyed by itself.
        self._answer: dict[Pair, Pair] = {}
        self._checks = obs.counter(f"join.{self.name}.dominance_checks")

    # -- query lifecycle ---------------------------------------------------
    def add_query(
        self,
        query_id: QueryId,
        graph: LabeledGraph,
        stream_npvs: StreamNpvs | None = None,
    ) -> QueryChange:
        """Register a standing query against the live streams.

        ``stream_npvs`` is a view of every registered stream's current
        NPVs: new dimensions, then the new group's dominance state, are
        seeded from it before the change is visible to :meth:`candidates`.
        A stream missing from it is refused before anything changes: the
        newcomer would miss its pairs.
        """
        npvs = stream_npvs or {}
        for stream_id in self.stream_ids():
            if stream_id not in npvs:
                raise ValueError(f"add_query needs the NPVs of stream {stream_id!r}")
        change = self.query_set.add_query(query_id, graph)
        if change.added_dims:
            self._on_dims_added(change.added_dims, npvs)
        if change.group_added:
            self._on_group_added(change, npvs)
        return change

    def remove_query(self, query_id: QueryId) -> QueryChange:
        """Deregister a query, retiring group state when it was the last
        member and dimensions that left the universe."""
        change = self.query_set.remove_query(query_id)
        if change.group_retired:
            self._on_group_retired(change)
        if change.removed_dims:
            self._on_dims_removed(change.removed_dims)
        return change

    # -- stream lifecycle ------------------------------------------------
    def register_stream(self, stream_id: StreamId, npvs: Mapping[VertexId, NPV]) -> None:
        """Attach a stream with its current per-vertex NPVs (kept, not copied)."""
        if stream_id in self._vectors:
            raise ValueError(f"stream {stream_id!r} is already registered")
        self._vectors[stream_id] = npvs
        self._on_stream_added(stream_id, npvs)

    def remove_stream(self, stream_id: StreamId) -> None:
        """Detach a stream entirely."""
        del self._vectors[stream_id]
        self._on_stream_removed(stream_id)

    def stream_ids(self) -> list[StreamId]:
        """Ids of the currently attached streams."""
        return list(self._vectors)

    # -- NPV evolution (forwarded from the NNT index) ---------------------
    def on_vertex_added(self, stream_id: StreamId, vertex: VertexId) -> None:
        """A vertex (empty NPV) joined the stream graph."""

    def on_vertex_removed(self, stream_id: StreamId, vertex: VertexId) -> None:
        """A vertex left the stream graph: retire what its last delivered
        values built (the index purged its pending deltas)."""

    def batch_update(self, stream_id: StreamId, deltas: BatchDeltas) -> None:
        """One coalesced batch of net NPV deltas for a stream.

        Every delta is non-zero and every referenced vertex is currently
        registered (vertices removed mid-batch had their queued deltas
        purged at removal time).  Deltas outside the dimension universe
        are dropped; each other one reaches the engine as one
        :meth:`_value_changed` transition, ``old = new - delta``.
        """
        universe = self.query_set.dimension_universe
        value_changed = self._value_changed
        for (vertex, dim), (delta, new) in deltas.items():
            if dim in universe:
                value_changed(stream_id, vertex, dim, new - delta, new)

    # -- engine hooks (override what the algorithm reacts to) --------------
    def _on_stream_added(self, stream_id: StreamId, npvs: Mapping[VertexId, NPV]) -> None:
        """A stream was attached with ``npvs`` (every dimension)."""

    def _on_stream_removed(self, stream_id: StreamId) -> None:
        """A stream was detached."""

    def _value_changed(
        self, stream_id: StreamId, vertex: VertexId, dim: Dimension, old: int, new: int
    ) -> None:
        """One NPV entry moved from ``old`` to ``new`` (``dim`` is in the
        universe)."""

    def _on_dims_added(self, dims: frozenset, stream_npvs: StreamNpvs) -> None:
        """New universe dimensions, with the live NPVs to read them from."""

    def _on_group_added(self, change: QueryChange, stream_npvs: StreamNpvs) -> None:
        """A new dominance group: build its state against current streams."""

    def _on_group_retired(self, change: QueryChange) -> None:
        """The group's last member left: retire its rows and counters."""

    def _on_dims_removed(self, dims: frozenset) -> None:
        """Dimensions left the universe."""

    # -- results ----------------------------------------------------------
    @abstractmethod
    def is_candidate(self, stream_id: StreamId, query_id: QueryId) -> bool:
        """Does the pair currently pass the dominance filter?  A pure
        verdict: it records nothing."""

    def _blame(self, stream_id: StreamId, query_id: QueryId) -> str:
        """The dimension a pruned pair is counted under: :func:`blame_dimension`
        of the first query vector no stream vector dominates."""
        stream_vectors = list(self._vectors[stream_id].values())
        for index in self.query_set.by_query[query_id]:
            query_vector = self.query_set.vectors[index].vector
            if not any(dominates(v, query_vector) for v in stream_vectors):
                return blame_dimension(query_vector, stream_vectors)
        return "combination"

    def candidates(self) -> set[Pair]:
        """All currently passing (stream, query) pairs, as a fresh set.

        A pair that also passed at the previous call is the *same tuple
        object* as then, so a caller that keeps answers (a session's
        last poll, a recording of every tick) holds one tuple per pair,
        not one per pair per kept answer.

        The one place filter telemetry is recorded, per call: every
        pruned pair on ``join.<engine>.pruned{dim=<_blame>}``, the pairs
        judged on ``join.<engine>.dominance_checks`` and the pairs
        passed on ``filter.candidates``.
        """
        with obs.span("join.candidates", engine=self.name):
            recording = obs.enabled()
            previous = self._answer
            answer: dict[Pair, Pair] = {}
            stream_ids = self.stream_ids()
            query_ids = self.query_set.query_ids()
            for stream_id in stream_ids:
                for query_id in query_ids:
                    if self.is_candidate(stream_id, query_id):
                        pair = (stream_id, query_id)
                        pair = previous.get(pair, pair)
                        answer[pair] = pair
                    elif recording:
                        dim = self._blame(stream_id, query_id)
                        obs.counter(f"join.{self.name}.pruned", labels={"dim": dim}).inc()
            # Replaced, never patched: a pair of a removed stream or a
            # retired query is gone after the next call.
            self._answer = answer
            if recording:
                self._checks.inc(len(stream_ids) * len(query_ids))
                obs.counter("filter.candidates").inc(len(answer))
            return set(answer)


class VectorCopyJoin(JoinEngine):
    """An engine that reads whole stream vectors (``nl``, ``skyline``): its
    :attr:`_vectors` is a copy restricted to the universe, written from the
    payloads' new values, so a registered mapping is only ever read."""

    _vectors: dict[StreamId, dict[VertexId, NPV]]

    def _on_stream_added(self, stream_id: StreamId, npvs: Mapping[VertexId, NPV]) -> None:
        universe = self.query_set.dimension_universe
        self._vectors[stream_id] = {
            vertex: {dim: value for dim, value in vector.items() if dim in universe}
            for vertex, vector in npvs.items()
        }

    def on_vertex_added(self, stream_id: StreamId, vertex: VertexId) -> None:
        self._vectors[stream_id][vertex] = {}

    def on_vertex_removed(self, stream_id: StreamId, vertex: VertexId) -> None:
        del self._vectors[stream_id][vertex]

    def _value_changed(
        self, stream_id: StreamId, vertex: VertexId, dim: Dimension, old: int, new: int
    ) -> None:
        vector = self._vectors[stream_id][vertex]
        if new:
            vector[dim] = new
        else:
            del vector[dim]

    def _on_dims_added(self, dims: frozenset, stream_npvs: StreamNpvs) -> None:
        for stream_id, vectors in self._vectors.items():
            for vertex, vector in vectors.items():
                source = stream_npvs[stream_id][vertex]
                vector.update((dim, source[dim]) for dim in dims & source.keys())

    def _on_dims_removed(self, dims: frozenset) -> None:
        for vectors in self._vectors.values():
            for vector in vectors.values():
                for dim in dims & vector.keys():
                    del vector[dim]


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
