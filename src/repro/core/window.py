"""Sliding-window monitoring on top of :class:`StreamMonitor`.

The paper's model feeds explicit edge deletions; many stream sources
(packet captures, proximity scans) instead emit *observations* that
should expire after a time window.  :class:`SlidingWindowMonitor` keeps,
per stream, the expiry time of every live edge: observing an edge
inserts it (or refreshes its expiry), and :meth:`tick` advances the
stream's clock, turning expirations into the underlying monitor's edge
deletions.  Everything else — patterns, engines, soundness — is the
wrapped :class:`StreamMonitor`.
"""

from __future__ import annotations

from typing import Mapping

from ..graph.labeled_graph import Label, LabeledGraph, VertexId, edge_key
from ..graph.operations import EdgeChange, GraphChangeOperation
from ..join.base import Pair, QueryId, StreamId
from ..nnt.projection import DimensionScheme, PAPER_SCHEME
from .monitor import MatchEvent, StreamMonitor


class SlidingWindowMonitor:
    """Continuous pattern search where every observed edge lives for
    ``window`` ticks (re-observation refreshes the lease).

    >>> from repro import LabeledGraph
    >>> pattern = LabeledGraph.from_vertices_and_edges(
    ...     [(0, "A"), (1, "B")], [(0, 1, "-")])
    >>> monitor = SlidingWindowMonitor({"ab": pattern}, window=2)
    >>> monitor.add_stream("s")
    >>> monitor.observe("s", 1, 2, "-", "A", "B")
    >>> monitor.matches()
    {('s', 'ab')}
    >>> monitor.tick("s"), monitor.tick("s")
    (0, 1)
    >>> monitor.matches()
    set()
    """

    def __init__(
        self,
        queries: Mapping[QueryId, LabeledGraph],
        window: int,
        method: str = "dsc",
        depth_limit: int = 3,
        scheme: DimensionScheme = PAPER_SCHEME,
    ) -> None:
        if window < 1:
            raise ValueError("window must be at least 1 tick")
        self.window = window
        #: The wrapped monitor, public for what is not delegated here
        #: (verifiers, checkpoints, query churn, stats); edges go in
        #: through :meth:`observe` only, or the leases go stale.
        self.monitor = StreamMonitor(queries, method, depth_limit, scheme)
        self._clock: dict[StreamId, int] = {}
        self._expiry: dict[StreamId, dict[tuple[VertexId, VertexId], int]] = {}

    # ------------------------------------------------------------------
    # stream lifecycle
    # ------------------------------------------------------------------
    def add_stream(self, stream_id: StreamId) -> None:
        """Start monitoring a stream (windowed streams start empty)."""
        self.monitor.add_stream(stream_id)
        self._clock[stream_id] = 0
        self._expiry[stream_id] = {}

    def remove_stream(self, stream_id: StreamId) -> None:
        """Stop monitoring a stream."""
        self.monitor.remove_stream(stream_id)
        del self._clock[stream_id]
        del self._expiry[stream_id]

    def clock(self, stream_id: StreamId) -> int:
        """The stream's current tick."""
        return self._clock[stream_id]

    # ------------------------------------------------------------------
    # observations and time
    # ------------------------------------------------------------------
    def observe(
        self,
        stream_id: StreamId,
        u: VertexId,
        v: VertexId,
        edge_label: Label = "-",
        u_label: Label | None = None,
        v_label: Label | None = None,
    ) -> None:
        """Record one edge observation: inserts the edge if absent, and
        (re)sets its expiry ``window`` ticks from now either way."""
        key = edge_key(u, v)
        leases = self._expiry[stream_id]
        if key not in leases:
            self.monitor.apply(
                stream_id, EdgeChange.insert(u, v, edge_label, u_label, v_label)
            )
        leases[key] = self._clock[stream_id] + self.window

    def retract(self, stream_id: StreamId, u: VertexId, v: VertexId) -> None:
        """Explicitly drop an edge before its lease expires."""
        key = edge_key(u, v)
        if self._expiry[stream_id].pop(key, None) is not None:
            self.monitor.apply(stream_id, EdgeChange.delete(u, v))

    def tick(self, stream_id: StreamId) -> int:
        """Advance the stream's clock by one and expire stale edges;
        returns the number of edges that expired."""
        self._clock[stream_id] += 1
        now = self._clock[stream_id]
        leases = self._expiry[stream_id]
        expired = [key for key, expire_at in leases.items() if expire_at <= now]
        if expired:
            changes: list[EdgeChange] = []
            for key in expired:
                del leases[key]
                u, v = key
                changes.append(EdgeChange.delete(u, v))
            self.monitor.apply(stream_id, GraphChangeOperation(changes))
        return len(expired)

    # ------------------------------------------------------------------
    # results (delegated)
    # ------------------------------------------------------------------
    def graph(self, stream_id: StreamId) -> LabeledGraph:
        """The stream's current windowed graph (live — treat as read-only)."""
        return self.monitor.graph(stream_id)

    def matches(self) -> set[Pair]:
        """Possible joinable pairs over the current windows."""
        return self.monitor.matches()

    def verified_matches(self) -> set[Pair]:
        """Exact joinable pairs over the current windows."""
        return self.monitor.verified_matches()

    def events(self) -> list[MatchEvent]:
        """Match transitions since the last poll (see StreamMonitor)."""
        return self.monitor.events()
