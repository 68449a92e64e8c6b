"""The NNT index: bulk load (Def 3.1) and incremental maintenance (Section III, Figs 4-5).

:class:`NNTIndex` keeps, for one evolving graph, the graph and the sparse
NPV of every vertex (Section IV-A) — and no tree.  A depth-``k`` node of
``NNT(r)`` is a trail of length ``k`` from ``r`` (a walk that repeats no
edge), so every count the paper's trees hold can be read off the graph by
walking trails (:mod:`repro.nnt.trails`):

* an index over a given graph is bulk-loaded, silently: one walk per root
  (Def 3.1), each NPV assigned once;
* inserting edge ``(a, b)`` creates exactly the tree nodes whose root
  path crosses it, and deleting it removes exactly those (Procedures
  *Insert-Edge* / *Delete-Edge*); the index walks those trails outward
  from the edge and books ``+1`` per tree edge after adding the graph edge,
  ``-1`` before removing it.  Per appearance of the edge the work is
  ``O(r^(l-1))`` for maximum degree ``r`` (Lemma 3.2).

``num_tree_nodes`` and ``stats`` count the *logical* tree nodes: one per
trail of length ``<= l`` from every vertex, roots included.  Dimensions are
interned per index (equal NPV keys are one tuple object).

Every booked tree edge is a ``+/-1`` delta on one projection dimension,
applied to the owning vertex's NPV and forwarded to registered listeners —
this is what lets the join engines of :mod:`repro.join` update their
counters without ever re-projecting a tree.

Delta delivery is *batched and coalesced*: all the ``+/-1``
deltas produced while one edge change (or one whole timestamp batch
applied through :meth:`NNTIndex.apply` / :meth:`NNTIndex.batch`) is in
flight are accumulated per ``(vertex, dimension)``, cancelling pairs are
netted out, and listeners receive a single
``on_batch_update({(vertex, dim): (net_delta, new_value)})`` call per
batch (vertex lifecycle events still fire eagerly, in order).  On temporal-locality
streams — where a timestamp deletes and re-inserts overlapping edge
sets — most deltas cancel, so the join engines see a fraction of the raw
tree-edge churn.

A batch is refused whole or applied whole: every mutation entry point
asks :func:`~repro.graph.operations.check_batch` once, which reads the
graph and never writes it, so a refused change raises before any graph
edge, NPV or listener moves, and the Figs 4-5 bodies below never refuse.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Mapping, Protocol

from .. import obs
from ..graph.labeled_graph import GraphError, Label, LabeledGraph, VertexId
from ..graph.operations import EdgeChange, GraphChangeOperation, check_batch
from .projection import NPV, Dimension, DimensionScheme, PAPER_SCHEME
from .trails import Tallies, TrailWalk


class NPVListener(Protocol):
    """Observer of NPV evolution for one evolving graph: eager vertex
    lifecycle events, and one coalesced delta mapping per batch scope."""

    def on_vertex_added(self, vertex: VertexId) -> None:
        """A vertex (with an initially empty NPV) entered the graph."""

    def on_vertex_removed(self, vertex: VertexId) -> None:
        """A vertex left the graph (its index-side NPV is already empty).
        Its zeroing deltas are purged rather than flushed, so a listener
        retires what the vertex's last delivered values built."""

    def on_batch_update(
        self, deltas: Mapping[tuple[VertexId, Dimension], tuple[int, int]]
    ) -> None:
        """One batch's coalesced entries, each its non-zero net delta and
        its post-batch value (treat as read-only)."""


class NNTIndex:
    """All NPVs of one evolving graph, maintained incrementally."""

    def __init__(
        self,
        initial: LabeledGraph | None = None,
        depth_limit: int = 3,
        scheme: DimensionScheme = PAPER_SCHEME,
    ) -> None:
        if depth_limit < 1:
            raise ValueError("depth_limit must be at least 1")
        self.depth_limit = depth_limit
        self.scheme = scheme
        self.graph = LabeledGraph()
        self.npvs: dict[VertexId, NPV] = {}
        # dimension -> its one canonical tuple (what NPV keys and delivered
        # delta keys of this index all are).
        self._dims: dict[Dimension, Dimension] = {}
        self.listeners: list[NPVListener] = []
        #: Live *logical* tree node count across all NNTs, roots included:
        #: the trails of length <= l from every vertex, in O(1).
        self.num_tree_nodes = 0
        self._batch_depth = 0
        self._pending: dict[tuple[VertexId, Dimension], int] = {}
        self.stats = {
            "tree_nodes_added": 0,
            "tree_nodes_removed": 0,
            "edges_inserted": 0,
            "edges_deleted": 0,
            "deltas_delivered": 0,
        }
        if initial is not None:
            self._build_initial(initial)

    # ------------------------------------------------------------------
    # read API
    # ------------------------------------------------------------------
    def npv(self, vertex: VertexId) -> NPV:
        """The (live, do-not-mutate) NPV of ``vertex``."""
        return self.npvs[vertex]

    def add_listener(self, listener: NPVListener) -> None:
        """Subscribe to NPV deltas (changes after this call only)."""
        self.listeners.append(listener)

    # ------------------------------------------------------------------
    # delta batching / coalescing
    # ------------------------------------------------------------------
    @contextmanager
    def batch(self) -> Iterator["NNTIndex"]:
        """Scope within which NPV deltas are accumulated and coalesced.

        Scopes nest (only the outermost flushes); every public mutation
        entry point opens one, so ``with index.batch(): ...`` widens the
        coalescing window from one edge change to anything — e.g. one
        whole timestamp batch, which is how :meth:`apply` uses it.
        """
        self._batch_depth += 1
        try:
            yield self
        finally:
            self._batch_depth -= 1
            if self._batch_depth == 0:
                self._flush_pending()

    def _flush_pending(self) -> None:
        """Deliver the netted deltas of the closing batch scope, each as
        ``(net_delta, new_value)``: one ``on_batch_update`` call per
        listener.  Entries for vertices removed mid-batch were already
        purged (the eager ``on_vertex_removed`` tore their listener-side
        state down), so every delivered delta lands on a tracked vertex.
        """
        if not self._pending:
            return
        npvs, pending = self.npvs, self._pending
        deltas = {key: (delta, npvs[key[0]].get(key[1], 0)) for key, delta in pending.items()}
        self._pending = {}
        self.stats["deltas_delivered"] += len(deltas)
        with obs.span("nnt.batch_update", size=len(deltas)):
            for listener in self.listeners:
                listener.on_batch_update(deltas)
        if obs.enabled():
            obs.counter("nnt.deltas_delivered").inc(len(deltas))
            obs.histogram("nnt.batch_size").observe(len(deltas))

    def _purge_pending(self, vertex: VertexId) -> None:
        """Drop queued deltas owned by a vertex being removed mid-batch."""
        if self._pending:
            for key in [key for key in self._pending if key[0] == vertex]:
                del self._pending[key]

    # ------------------------------------------------------------------
    # initial build
    # ------------------------------------------------------------------
    def _build_initial(self, initial: LabeledGraph) -> None:
        """Bulk-load (Def 3.1): one trail walk per vertex over a private
        copy of the finished graph, each root's NPV assigned once.  No
        listener hears of it (consumers attach afterwards and read the
        finished NPVs) and only ``tree_nodes_added`` moves in ``stats``.
        The end state is the one Procedure *Insert-Edge* reaches from the
        empty index over the same edges in any order."""
        graph = self.graph = initial.copy()
        self.npvs, nodes = TrailWalk(graph, self.depth_limit, self.scheme, self._dims).project()
        self.num_tree_nodes = nodes
        self.stats["tree_nodes_added"] = nodes - graph.num_vertices

    # ------------------------------------------------------------------
    # change application
    # ------------------------------------------------------------------
    def apply(self, operation: GraphChangeOperation | EdgeChange) -> None:
        """Apply a batch (or one change), all or nothing: deletions first,
        then insertions, read off the batch's columns.

        :func:`~repro.graph.operations.check_batch` judges the whole batch
        first, so a bad change anywhere in it raises :class:`GraphError`
        before any NPV or listener sees one.  The whole operation shares
        one coalescing scope, so deltas that cancel across its changes
        (e.g. a delete/re-insert pair crossing the same trails) never
        reach the listeners.
        """
        pairs, rows = check_batch(self.graph, operation)
        with self.batch():
            for a, b in pairs:
                self._delete_checked(a, b)
            for row in rows:
                self._insert_checked(*row)

    def apply_change(self, change: EdgeChange) -> None:
        """Apply a single edge insertion or deletion, all or nothing."""
        self.apply(change)

    def insert_edge(
        self,
        a: VertexId,
        b: VertexId,
        edge_label: Label,
        a_label: Label | None = None,
        b_label: Label | None = None,
    ) -> None:
        """Insert graph edge ``(a, b)``, creating missing endpoints.  A
        refused insert (self loop, duplicate edge, new endpoint without
        a label) raises :class:`GraphError` before anything is touched."""
        if a == b:
            raise GraphError("self loops are not supported")
        self.apply_change(EdgeChange.insert(a, b, edge_label, a_label, b_label))

    def delete_edge(self, a: VertexId, b: VertexId) -> None:
        """Delete graph edge ``(a, b)``; endpoints left isolated are dropped."""
        self.apply_change(EdgeChange.delete(a, b))

    def _insert_checked(
        self,
        a: VertexId,
        b: VertexId,
        edge_label: Label,
        a_label: Label | None,
        b_label: Label | None,
    ) -> None:
        """One insertion :func:`check_batch` has accepted: Procedure
        *Insert-Edge* (Figure 5)."""
        for vertex, label in ((a, a_label), (b, b_label)):
            if not self.graph.has_vertex(vertex):
                self._create_vertex(vertex, label)
        self.graph.add_edge(a, b, edge_label)
        self._book_trails(a, b, edge_label, +1)
        self.stats["edges_inserted"] += 1

    def _delete_checked(self, a: VertexId, b: VertexId) -> None:
        """One deletion :func:`check_batch` has accepted: Procedure
        *Delete-Edge* (Figure 4)."""
        self._book_trails(a, b, self.graph.edge_label(a, b), -1)
        self.graph.remove_edge(a, b)
        self.stats["edges_deleted"] += 1
        for vertex in (a, b):
            if self.graph.degree(vertex) == 0:
                self._remove_vertex(vertex)

    def _book_trails(self, a: VertexId, b: VertexId, edge_label: Label, sign: int) -> None:
        """Book ``sign`` per tree edge of every trail through graph edge
        ``(a, b)``, which must be in the graph: the tree nodes Figure 5
        splices in after adding it, or Figure 4 takes out before removing it."""
        tallies: Tallies = {}
        nodes = TrailWalk(self.graph, self.depth_limit, self.scheme, self._dims).through(
            tallies, a, b, edge_label
        )
        # Each entry goes onto its NPV and is netted into the open scope.
        pending = self._pending
        for root, counts in tallies.items():
            npv = self.npvs[root]
            for dim, count in counts.items():
                if not count:
                    continue
                delta = sign * count
                value = npv.get(dim, 0) + delta
                if value > 0:
                    npv[dim] = value
                elif value == 0:
                    del npv[dim]
                else:
                    raise AssertionError(f"NPV of {root!r} would go negative on {dim!r}")
                key = (root, dim)
                net = pending.get(key, 0) + delta
                if net:
                    pending[key] = net
                else:
                    del pending[key]
        self.num_tree_nodes += sign * nodes
        self.stats["tree_nodes_added" if sign > 0 else "tree_nodes_removed"] += nodes

    # ------------------------------------------------------------------
    # vertex lifecycle
    # ------------------------------------------------------------------
    def _create_vertex(self, vertex: VertexId, label: Label) -> None:
        """A new vertex: its NNT is a bare root, its NPV empty."""
        self.graph.add_vertex(vertex, label)
        self.npvs[vertex] = {}
        self.num_tree_nodes += 1
        for listener in self.listeners:
            listener.on_vertex_added(vertex)

    def _remove_vertex(self, vertex: VertexId) -> None:
        """Drop a now-isolated vertex, whose NNT is a bare root."""
        if self.npvs.pop(vertex):
            raise AssertionError(
                f"isolated vertex {vertex!r} has a non-empty NPV; index is corrupt"
            )
        self.graph.remove_vertex(vertex)
        self.num_tree_nodes -= 1
        # Queued deltas for this vertex net out to minus its pre-batch NPV;
        # the eager on_vertex_removed below already tears the listener-side
        # vector down, so delivering them later would double-reverse.
        self._purge_pending(vertex)
        for listener in self.listeners:
            listener.on_vertex_removed(vertex)

    # ------------------------------------------------------------------
    # integrity checking (used heavily by the test suite)
    # ------------------------------------------------------------------
    def check_integrity(self) -> None:
        """Hold the index to Def 3.1 by brute force — every simple path of
        length ``<= l`` from every vertex of the live graph — and raise
        AssertionError on any difference.  O(total tree size) — for tests
        and debugging."""
        from .branches import enumerate_simple_paths, project_paths

        if set(self.npvs) != set(self.graph.vertices()):
            raise AssertionError("NPV key set does not match graph vertex set")
        if self._batch_depth or self._pending:
            raise AssertionError("integrity checked inside an open delta batch")
        logical = 0
        for vertex in self.graph.vertices():
            paths = enumerate_simple_paths(self.graph, vertex, self.depth_limit)
            logical += len(paths)
            if project_paths(self.graph, paths, self.scheme) != self.npvs[vertex]:
                raise AssertionError(f"NPV of {vertex!r} diverged from fresh projection")
        if self.num_tree_nodes != logical:
            raise AssertionError(
                f"running tree-node counter ({self.num_tree_nodes}) diverged "
                f"from the simple paths of the live graph ({logical})"
            )
