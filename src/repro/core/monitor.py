"""Continuous subgraph pattern monitoring — the library's main entry point.

:class:`StreamMonitor` wires the whole paper together: a fixed query set
projected once (Section IV-A), one incrementally maintained
:class:`~repro.nnt.incremental.NNTIndex` per registered stream
(Section III), and a dominance join engine (Section IV-B: ``nl``,
``dsc`` or ``skyline``; plus the vectorized ``matrix`` backend) fed by
coalesced NPV delta batches (``docs/performance.md`` describes the
delivery pipeline and when to pick which engine).  At any timestamp
:meth:`matches` reports the *possible joinable* pairs of Definition 2.8 —
guaranteed to include every truly joinable pair (no false negatives) —
and :meth:`verified_matches` optionally confirms them with exact
subgraph isomorphism.

>>> from repro import StreamMonitor, LabeledGraph, EdgeChange
>>> pattern = LabeledGraph.from_vertices_and_edges(
...     [(0, "A"), (1, "B")], [(0, 1, "x")])
>>> monitor = StreamMonitor({"q0": pattern})
>>> monitor.add_stream("s0")
>>> monitor.apply("s0", EdgeChange.insert(10, 11, "x", "A", "B"))
>>> monitor.matches()
{('s0', 'q0')}
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterable, Literal, Mapping, NamedTuple

from .. import obs
from ..graph.labeled_graph import LabeledGraph
from ..graph.operations import EdgeChange, GraphChangeOperation
from ..join import QuerySet, StreamListenerAdapter, make_engine
from ..join.base import Pair, QueryId, StreamId
from ..nnt.incremental import NNTIndex
from ..nnt.projection import DimensionScheme, PAPER_SCHEME


class CheckpointError(Exception):
    """The cadence export (``checkpoint_every``) failed after ``apply``
    committed its batch: the batch is in, only the export is missing.
    Not a refusal, so neither a ``ValueError`` nor a ``GraphError``; the
    message is the export failure's ``Type: message``."""


class MatchEvent(NamedTuple):
    """A transition of one (stream, query) pair between two polls."""

    kind: Literal["appeared", "vanished"]
    stream_id: StreamId
    query_id: QueryId


def diff_polls(previous: set[Pair], current: set[Pair]) -> list[MatchEvent]:
    """The sorted transition events between two candidate-set polls —
    the one place the appeared/vanished semantics live, shared by
    :meth:`StreamMonitor.events` and the runtime coordinator."""
    events = [MatchEvent("appeared", s, q) for s, q in current - previous]
    events += [MatchEvent("vanished", s, q) for s, q in previous - current]
    return sorted(events, key=lambda e: (e.kind, str(e.stream_id), str(e.query_id)))


class StreamMonitor:
    """Continuous filter over many graph streams for a fixed query set.

    Parameters
    ----------
    queries:
        The fixed pattern set (Definition 2.7) as ``{query_id: graph}``.
    method:
        Join engine: ``"dsc"`` (default, Figure 8), ``"skyline"``
        (Figure 11), ``"nl"`` (the baseline nested loop) or
        ``"matrix"`` (dense vectorized dominance).
    depth_limit:
        NNT depth ``l``; the paper's self-test settles on 3.
    scheme:
        NPV dimension scheme (the paper's label-pair scheme by default).
    checkpoint_dir:
        Where :meth:`checkpoint` writes its export; required for it.
    checkpoint_every:
        Auto-checkpoint every this many applied updates (0 = never).
    """

    def __init__(
        self,
        queries: Mapping[QueryId, LabeledGraph],
        method: str = "dsc",
        depth_limit: int = 3,
        scheme: DimensionScheme = PAPER_SCHEME,
        checkpoint_dir: str | Path | None = None,
        checkpoint_every: int = 0,
    ) -> None:
        if depth_limit < 1:
            raise ValueError(f"depth_limit must be >= 1, got {depth_limit}")
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if checkpoint_every and checkpoint_dir is None:
            raise ValueError("checkpoint_every requires checkpoint_dir")
        self.query_set = QuerySet(queries, depth_limit, scheme)
        self.method = method.lower()
        self.engine = make_engine(self.method, self.query_set)
        self.depth_limit = depth_limit
        self.scheme = scheme
        self._indexes: dict[StreamId, NNTIndex] = {}
        self._adapters: dict[StreamId, StreamListenerAdapter] = {}
        self._last_poll: set[Pair] = set()
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self.checkpoint_every = checkpoint_every
        self._updates_since_checkpoint = 0

    # ------------------------------------------------------------------
    # stream lifecycle
    # ------------------------------------------------------------------
    def add_stream(self, stream_id: StreamId, initial: LabeledGraph | None = None) -> None:
        """Start monitoring a stream, optionally from an initial graph."""
        if stream_id in self._indexes:
            raise ValueError(f"stream {stream_id!r} is already monitored")
        index = NNTIndex(initial, self.depth_limit, self.scheme)
        self.engine.register_stream(stream_id, index.npvs)
        adapter = StreamListenerAdapter(self.engine, stream_id)
        index.add_listener(adapter)
        self._indexes[stream_id] = index
        self._adapters[stream_id] = adapter

    def remove_stream(self, stream_id: StreamId) -> None:
        """Stop monitoring a stream and free its state."""
        del self._indexes[stream_id]
        del self._adapters[stream_id]
        self.engine.remove_stream(stream_id)
        self._last_poll = {pair for pair in self._last_poll if pair[0] != stream_id}

    # ------------------------------------------------------------------
    # query lifecycle (the paper leaves dynamic query sets as future
    # work; queries register and deregister *live* — the engine snapshots
    # the streams' current NPVs into the newcomer's dominance state, so
    # there is no rebuild hiccup and no false-negative window)
    # ------------------------------------------------------------------
    def register_query(self, query_id: QueryId, query: LabeledGraph) -> None:
        """Register a pattern against the live streams.

        The engine's :meth:`~repro.join.base.JoinEngine.add_query` seam
        folds the current per-stream NPVs straight into the new query's
        rows/counters; from this call on the query is indistinguishable
        from one registered at construction time.
        """
        if query_id in self.query_set.queries:
            raise ValueError(f"query {query_id!r} is already monitored")
        with obs.span("monitor.register_query", query=str(query_id)):
            stream_npvs = {
                stream_id: index.npvs for stream_id, index in self._indexes.items()
            }
            self.engine.add_query(query_id, query, stream_npvs)

    def deregister_query(self, query_id: QueryId) -> None:
        """Drop a pattern, retiring its rows/counters (the engine keeps
        shared dedup-group state alive while other members remain)."""
        if query_id not in self.query_set.queries:
            raise KeyError(f"query {query_id!r} is not monitored")
        with obs.span("monitor.deregister_query", query=str(query_id)):
            self.engine.remove_query(query_id)
        self._last_poll = {pair for pair in self._last_poll if pair[1] != query_id}

    def query_ids(self) -> list[QueryId]:
        """Ids of the currently monitored patterns."""
        return self.query_set.query_ids()

    def stream_ids(self) -> list[StreamId]:
        """Ids of the currently monitored streams."""
        return list(self._indexes)

    def graph(self, stream_id: StreamId) -> LabeledGraph:
        """The stream's current graph (live — treat as read-only)."""
        return self._indexes[stream_id].graph

    def mutation_version(self, stream_id: StreamId) -> int:
        """Monotone per-stream mutation counter.

        Advances on every edge insertion or deletion applied to the
        stream (all graph mutations are edge changes — vertices appear
        and vanish with their edges), so two calls returning the same
        value bracket a quiescent period: the stream's graph, NNT index
        and NPVs are all unchanged between them.  Verification caches
        key on this.
        """
        stats = self._indexes[stream_id].stats
        return stats["edges_inserted"] + stats["edges_deleted"]

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def apply(
        self, stream_id: StreamId, update: GraphChangeOperation | EdgeChange
    ) -> None:
        """Apply one edge change or a whole timestamp batch to a stream,
        all or nothing: an update the stream's graph refuses (duplicate
        insert, missing delete, unlabeled new vertex) raises
        :class:`~repro.graph.GraphError` with nothing of it applied.  A
        cadence checkpoint that fails after the batch went in raises
        :class:`CheckpointError`."""
        with obs.span("monitor.apply", stream=stream_id):
            self._indexes[stream_id].apply(update)
        if obs.enabled():
            obs.counter("monitor.changes").inc(len(update))
        self._updates_since_checkpoint += 1
        if 0 < self.checkpoint_every <= self._updates_since_checkpoint:
            try:
                self.checkpoint()
            except (OSError, ValueError) as exc:
                raise CheckpointError(f"{type(exc).__name__}: {exc}") from exc

    def apply_many(
        self, updates: Mapping[StreamId, GraphChangeOperation | EdgeChange]
    ) -> None:
        """Apply one timestamp's updates across several streams; each
        value may be a whole batch or a single edge change (the same
        union :meth:`apply` takes)."""
        for stream_id, update in updates.items():
            self.apply(stream_id, update)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def matches(self) -> set[Pair]:
        """All currently *possible joinable* ``(stream_id, query_id)``
        pairs (the approximate answer of Definition 2.8; superset of the
        exact answer)."""
        with obs.span("monitor.matches", engine=self.method):
            result = self.engine.candidates()
        if obs.enabled():
            obs.counter("monitor.polls").inc()
        return result

    def is_match(self, stream_id: StreamId, query_id: QueryId) -> bool:
        """Does one pair currently pass the filter?"""
        return self.engine.is_candidate(stream_id, query_id)

    def stats(self) -> dict[str, Any]:
        """Aggregate maintenance statistics across all streams: graph
        sizes, NNT index sizes, and cumulative churn counters."""
        per_stream: dict[StreamId, dict[str, Any]] = {}
        for stream_id, index in self._indexes.items():
            per_stream[stream_id] = {
                "num_vertices": index.graph.num_vertices,
                "num_edges": index.graph.num_edges,
                "tree_nodes": index.num_tree_nodes,
                **index.stats,
            }
        return {
            "num_streams": len(self._indexes),
            "num_queries": len(self.query_set),
            "num_query_groups": self.query_set.num_groups,
            "num_query_dimensions": len(self.query_set.dimension_universe),
            "streams": per_stream,
        }

    def events(self) -> list[MatchEvent]:
        """Transitions since the previous :meth:`events` call: pairs
        that newly pass the filter ("appeared") and pairs that stopped
        passing it ("vanished"), sorted for determinism.

        This is the common event surface of the library and runtime
        paths: :class:`repro.runtime.ShardedMonitor` aggregates its
        workers' candidate sets and diffs them with exactly these
        semantics (via :func:`diff_polls`), so both report transitions
        in the same format.
        """
        with obs.span("monitor.events"):
            current = self.matches()
            events = diff_polls(self._last_poll, current)
            self._last_poll = current
        if obs.enabled() and events:
            obs.counter("monitor.events").inc(len(events))
        return events

    def verified_matches(self, pairs: Iterable[Pair] | None = None) -> set[Pair]:
        """Exact joinable pairs: the filter's candidates confirmed by
        subgraph isomorphism checking (expensive; for when exactness
        matters more than latency)."""
        from ..isomorphism.vf2 import SubgraphMatcher  # only exactness pays for VF2

        if pairs is None:
            pairs = self.matches()
        confirmed: set[Pair] = set()
        matchers: dict[StreamId, SubgraphMatcher] = {}
        checked = 0
        with obs.span("monitor.verify"):
            for stream_id, query_id in pairs:
                matcher = matchers.get(stream_id)
                if matcher is None:
                    matcher = SubgraphMatcher(self._indexes[stream_id].graph)
                    matchers[stream_id] = matcher
                checked += 1
                if matcher.is_subgraph(self.query_set.queries[query_id]):
                    confirmed.add((stream_id, query_id))
        if obs.enabled() and checked:
            obs.counter("monitor.verifier_calls").inc(checked)
        return confirmed

    def obs_summary(self) -> dict[str, Any]:
        """The observability summary of everything this monitor did: the
        process-local registry (the sharded monitor merges its fleet's)."""
        return obs.get_registry().summary()

    def trace_spans(self) -> list[obs.SpanRecord]:
        """Every span collected so far (all in this process)."""
        return list(obs.spans())

    def checkpoint(self) -> dict[str, Any]:
        """Export the live query set and every stream's current graph to
        ``checkpoint_dir``, replacing the previous export atomically;
        returns its :func:`~repro.core.checkpoint.checkpoint_stats`."""
        from .checkpoint import save_monitor  # it imports this module

        if self.checkpoint_dir is None:
            raise RuntimeError("checkpoint() requires checkpoint_dir")
        self._updates_since_checkpoint = 0
        return save_monitor(self, self.checkpoint_dir)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Nothing to release — every resource is in-process.  Present
        so all monitor classes share one lifecycle surface
        (:class:`repro.runtime.ShardedMonitor` owns processes and rings)."""

    def __enter__(self) -> "StreamMonitor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
