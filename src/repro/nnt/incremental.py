"""The NNT index: bulk load (Def 3.1) and incremental maintenance (Section III, Figs 4-5).

:class:`NNTIndex` keeps, for one evolving graph, the NNT of every vertex
*to depth* ``l - 1``.  Level ``l`` — where most of Def 3.1's tree sits and
no node can ever get a child — is not stored: a depth-``l - 1`` node on
vertex ``g`` stands for one depth-``l`` tree edge per graph neighbour of
``g`` whose edge is not on its root path, and only their NPV counts
exist.  Two inverted indexes cover the materialised nodes:

* the **edge-tree index** ``I_edge``: graph edge -> the tree nodes whose
  incoming tree edge crosses it (each such node identifies one appearance
  of the graph edge in some NNT);
* the **node-tree index** ``I_node``: graph vertex -> every tree node that
  is an occurrence of it (across all NNTs, roots included).

Both are dicts of plain lists, and every node remembers its slot in each
(``node.vpos`` / ``node.epos``): an appearance is appended on splice-in
and removed by moving the bucket's last entry into its slot.  Dimensions
are interned per index (equal ``node.dim`` are one tuple object), and
subtree removal empties every removed inner node's ``children``, so a
detached subtree points upwards only, holds no reference cycle and is
freed by reference count at once instead of at the collector's next full
pass.

An index over a given graph is bulk-loaded, silently (Def 3.1: each stored
node created once, the implied level booked from per-vertex neighbour
profiles); Figs 4-5 take over from there, and a differential test in
``tests/test_nnt_incremental.py`` holds the two to one end state.

An appearance of a graph edge is thus of one of two kinds.  Deleting
edge ``(a, b)`` removes the subtree under each materialised appearance,
then takes one count off every remaining depth-``l - 1`` occurrence of
``a`` and of ``b`` (the implied appearances), then removes the graph edge
(Procedure *Delete-Edge*); inserting it adds the graph edge, then under
every pre-existing occurrence of ``a`` and of ``b`` either appends a new
branch expanded BFS-style to depth ``l - 1`` or, at depth ``l - 1``, adds
one count (Procedure *Insert-Edge*).  Per appearance the work is
``O(r^(l-1))`` for maximum degree ``r`` (Lemma 3.2), and
``num_tree_nodes`` / ``stats`` keep counting *logical* tree nodes,
materialised and implied alike.

The index simultaneously maintains the sparse NPV of every vertex
(Section IV-A): every tree edge spliced in or out, stored or implied,
produces a ``+/-1`` delta on one projection dimension, which is applied
to the owning vertex's NPV and forwarded to registered listeners — this is what lets
the join engines of :mod:`repro.join` update their counters without ever
re-projecting a tree.

Delta delivery is *batched and coalesced*: all the ``+/-1``
deltas produced while one edge change (or one whole timestamp batch
applied through :meth:`NNTIndex.apply` / :meth:`NNTIndex.batch`) is in
flight are accumulated per ``(vertex, dimension)``, cancelling pairs are
netted out, and listeners receive a single
``on_batch_update({(vertex, dim): net_delta})`` call per batch (vertex
lifecycle events still fire eagerly, in order).  On temporal-locality
streams — where a timestamp deletes and re-inserts overlapping edge
sets — most deltas cancel, so the join engines see a fraction of the raw
tree-edge churn.  Listeners without an ``on_batch_update`` method fall
back to one ``on_dimension_delta`` call per *net* entry.
"""

from __future__ import annotations

from collections import Counter, deque
from contextlib import contextmanager
from typing import Iterable, Iterator, Mapping, Protocol, Sequence

from .. import obs
from ..graph.labeled_graph import GraphError, Label, LabeledGraph, VertexId, edge_key
from ..graph.operations import (
    INSERT,
    EdgeChange,
    GraphChangeOperation,
    apply_batch_validated,
    undo_batch,
)
from .projection import NPV, Dimension, DimensionScheme, PAPER_SCHEME, add_to_vector
from .tree import NNT, NO_CHILDREN, TreeNode


class NPVListener(Protocol):
    """Observer of NPV evolution for one evolving graph."""

    def on_vertex_added(self, vertex: VertexId) -> None:
        """A vertex (with an initially empty NPV) entered the graph."""

    def on_vertex_removed(self, vertex: VertexId) -> None:
        """A vertex left the graph (its index-side NPV is already empty).

        Under coalesced delivery the zeroing deltas are purged rather
        than flushed, so a listener mirroring NPVs must discard (or
        reverse) whatever its own copy of the vector still holds —
        which is what the join engines do.
        """

    def on_dimension_delta(self, vertex: VertexId, dim: Dimension, delta: int) -> None:
        """``NPV(vertex)[dim]`` changed by ``delta`` (+1 or -1 per tree edge)."""


class BatchNPVListener(NPVListener, Protocol):
    """Listener that additionally accepts coalesced delta batches.

    :class:`NNTIndex` probes for :meth:`on_batch_update` at flush time;
    listeners lacking it receive one :meth:`NPVListener.on_dimension_delta`
    call per *net* ``(vertex, dimension)`` entry instead.
    """

    def on_batch_update(self, deltas: Mapping[tuple[VertexId, Dimension], int]) -> None:
        """One batch's coalesced non-zero NPV deltas (treat as read-only)."""


class NNTIndex:
    """All NNTs + NPVs of one evolving graph, maintained incrementally."""

    def __init__(
        self,
        initial: LabeledGraph | None = None,
        depth_limit: int = 3,
        scheme: DimensionScheme = PAPER_SCHEME,
    ) -> None:
        if depth_limit < 1:
            raise ValueError("depth_limit must be at least 1")
        self.depth_limit = depth_limit
        #: Deepest stored level; its nodes imply their depth-l children.
        self._deepest = depth_limit - 1
        self.scheme = scheme
        # Fast path: the paper's scheme builds (depth, label, label)
        # tuples inline in _dim instead of dispatching.
        self._paper_dims = not scheme.include_edge_label
        self.graph = LabeledGraph()
        self.trees: dict[VertexId, NNT] = {}
        self.node_index: dict[VertexId, list[TreeNode]] = {}
        self.edge_index: dict[tuple, list[TreeNode]] = {}
        self.npvs: dict[VertexId, NPV] = {}
        # dimension -> its one canonical tuple (what node.dim, NPV keys and
        # delivered delta keys of this index all are).
        self._dims: dict[Dimension, Dimension] = {}
        self.listeners: list[NPVListener] = []
        #: Live *logical* occurrence count across all NNTs — materialised
        #: nodes (roots included) plus implied depth-l ones; what a
        #: full-depth ``build_nnt`` of every vertex would sum to, in O(1).
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

    def tree(self, vertex: VertexId) -> NNT:
        """The live NNT rooted at ``vertex``."""
        return self.trees[vertex]

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

    def _emit_delta(self, vertex: VertexId, dim: Dimension, delta: int) -> None:
        """Net one NPV delta into the open batch scope."""
        key = (vertex, dim)
        net = self._pending.get(key, 0) + delta
        if net:
            self._pending[key] = net
        else:
            del self._pending[key]

    def _flush_pending(self) -> None:
        """Deliver the netted deltas of the closing batch scope.

        Listeners exposing ``on_batch_update`` get the whole coalesced
        mapping in one call; others get one ``on_dimension_delta`` per
        net entry.  Entries for vertices removed mid-batch were already
        purged (their listener-side state is torn down by the eager
        ``on_vertex_removed``), so every delivered delta lands on a
        vertex the listener still tracks.
        """
        if not self._pending:
            return
        deltas = self._pending
        self._pending = {}
        self.stats["deltas_delivered"] += len(deltas)
        with obs.span("nnt.batch_update", size=len(deltas)):
            for listener in self.listeners:
                batch_method = getattr(listener, "on_batch_update", None)
                if batch_method is not None:
                    batch_method(deltas)
                else:
                    for (vertex, dim), net in deltas.items():
                        listener.on_dimension_delta(vertex, dim, net)
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
        """Bulk-load (Def 3.1): one expansion per vertex over a private
        copy of the finished graph.  Every stored node is created, linked
        and indexed once and each root's NPV is assigned once; no listener
        hears of it (consumers attach afterwards and read the finished
        NPVs) and only ``tree_nodes_added`` moves in ``stats``.  The end
        state is the one Procedure *Insert-Edge* reaches from the empty
        index over the same edges in any order."""
        graph = self.graph = initial.copy()
        labels, limit, deepest = graph.labels, self.depth_limit, self._deepest
        for vertex in labels:
            self._plant_root(vertex)
        node_index, edge_index = self.node_index, self.edge_index
        # By child depth, then vertex: a row per neighbour with the tree
        # edge's label, interned dimension and ``I_edge`` key.  The last
        # level is implied: a deepest node on ``vertex`` stands for that
        # level's dimension counts there (the vertex's neighbour profile)
        # minus the edges its own root path already crosses.
        rows = [
            {
                vertex: [
                    (other, edge_label, self._dim(depth, label, labels[other], edge_label),
                     edge_key(vertex, other))
                    for other, edge_label in graph.neighbor_items(vertex)
                ]
                for vertex, label in labels.items()
            }
            for depth in range(1, limit + 1)
        ]
        implied_dim = {v: {row[0]: row[2] for row in level} for v, level in rows.pop().items()}
        profile = {v: list(Counter(dims.values()).items()) for v, dims in implied_dim.items()}
        added = 0
        for root_vertex, tree in self.trees.items():
            npv: NPV = {}
            stack = [tree.root]
            while stack:
                node = stack.pop()
                vertex, depth = node.graph_vertex, node.depth + 1
                # Neighbours whose edge is already on the root path (a
                # simple path may come back to a vertex, never to an edge).
                used = []
                below, above = node, node.parent
                while above is not None:
                    if below.graph_vertex == vertex:
                        used.append(above.graph_vertex)
                    elif above.graph_vertex == vertex:
                        used.append(below.graph_vertex)
                    below, above = above, above.parent
                if node.depth == deepest:
                    for dim, count in profile[vertex]:
                        npv[dim] = npv.get(dim, 0) + count
                    dims = implied_dim[vertex]
                    for other in used:
                        npv[dims[other]] -= 1
                    added += len(dims) - len(used)
                    continue
                for other, edge_label, dim, key in rows[node.depth][vertex]:
                    if other not in used:
                        child = TreeNode(other, node, depth, edge_label, depth == deepest)
                        node.children[other] = child
                        occurrences, appearances = node_index[other], edge_index.setdefault(key, [])
                        child.vpos = len(occurrences)
                        occurrences.append(child)
                        child.epos = len(appearances)
                        appearances.append(child)
                        child.root_vertex = root_vertex
                        child.dim = dim
                        npv[dim] = npv.get(dim, 0) + 1
                        stack.append(child)
                        added += 1
            # A profile entry taken back in full is a zero, and NPVs are sparse.
            self.npvs[root_vertex] = {dim: count for dim, count in npv.items() if count}
        self.num_tree_nodes += added
        self.stats["tree_nodes_added"] += added

    # ------------------------------------------------------------------
    # change application
    # ------------------------------------------------------------------
    def apply(self, operation: GraphChangeOperation) -> None:
        """Apply a batch, all or nothing: deletions first, then insertions.

        The batch is first run against the graph alone and taken back
        (:func:`~repro.graph.operations.apply_batch_validated`, the one
        statement of what is refused), so a bad change anywhere in it
        raises :class:`GraphError` before any tree node, NPV or listener
        sees one, and the Figs 4-5 procedures below cannot refuse.  The
        whole operation shares one coalescing scope, so deltas that
        cancel across its changes (e.g. a delete/re-insert pair touching
        the same tree edges) never reach the listeners.
        """
        undo_batch(self.graph, apply_batch_validated(self.graph, operation))
        with self.batch():
            for change in operation.sequentialized():
                self.apply_change(change)

    def apply_change(self, change: EdgeChange) -> None:
        """Apply a single edge insertion or deletion."""
        if change.op == INSERT:
            self.insert_edge(
                change.u, change.v, change.edge_label, change.u_label, change.v_label
            )
        else:
            self.delete_edge(change.u, change.v)

    # ------------------------------------------------------------------
    # insertion (Figure 5)
    # ------------------------------------------------------------------
    def insert_edge(
        self,
        a: VertexId,
        b: VertexId,
        edge_label: Label,
        a_label: Label | None = None,
        b_label: Label | None = None,
    ) -> None:
        """Insert graph edge ``(a, b)``, creating missing endpoints.  A
        refused insert (self loop, duplicate edge, new endpoint without a
        label) raises before anything is touched."""
        if a == b:
            raise GraphError("self loops are not supported")
        if self.graph.has_edge(a, b):
            raise GraphError(f"edge ({a!r}, {b!r}) already exists")
        endpoints = ((a, a_label), (b, b_label))
        for vertex, label in endpoints:
            if label is None and not self.graph.has_vertex(vertex):
                raise GraphError(
                    f"inserting edge ({a!r}, {b!r}) creates vertex "
                    f"{vertex!r} but no label was provided"
                )
        with self.batch():
            for vertex, label in endpoints:
                if not self.graph.has_vertex(vertex):
                    self._create_vertex(vertex, label)
            self._insert_edge_internal(a, b, edge_label)
            self.stats["edges_inserted"] += 1

    def _insert_edge_internal(self, a: VertexId, b: VertexId, edge_label: Label) -> None:
        # Snapshot the pre-existing appearances of both endpoints above
        # the deepest level before touching anything: the expansion below
        # creates new appearances of a and b that are already complete
        # w.r.t. the new edge (none of the old ones has it on its root path).
        deepest = self._deepest
        hang_below = [
            (node, other)
            for vertex, other in ((a, b), (b, a))
            for node in self.node_index[vertex]
            if node.depth < deepest
        ]
        self.graph.add_edge(a, b, edge_label)
        # At the deepest level the new depth-l tree edge is implied: an NPV
        # +1, nothing created.  Above it, hang the edge and its subtree.
        self._book_implied_edge(a, b, edge_label, +1)
        for node, other in hang_below:
            self._splice_subtree(node, other, edge_label)

    def _splice_subtree(self, parent: TreeNode, graph_vertex: VertexId, edge_label: Label) -> None:
        """Hang one new tree edge below ``parent`` (above the deepest
        level) and expand it BFS-style down to the depth limit."""
        deepest = self._deepest
        added = 1
        queue = deque([self._add_tree_edge(parent, graph_vertex, edge_label)])
        while queue:
            node = queue.popleft()
            if node.depth == deepest:
                added += self._book_implied(node, +1)
                continue
            vertex = node.graph_vertex
            for neighbor, neighbor_label in self.graph.neighbor_items(vertex):
                if not node.edge_on_root_path(vertex, neighbor):
                    queue.append(self._add_tree_edge(node, neighbor, neighbor_label))
                    added += 1
        self.num_tree_nodes += added
        self.stats["tree_nodes_added"] += added

    # ------------------------------------------------------------------
    # deletion (Figure 4)
    # ------------------------------------------------------------------
    def delete_edge(self, a: VertexId, b: VertexId) -> None:
        """Delete graph edge ``(a, b)``; endpoints left isolated are dropped."""
        if not self.graph.has_edge(a, b):
            raise GraphError(f"edge ({a!r}, {b!r}) does not exist")
        key = edge_key(a, b)
        with self.batch():
            # Appearances of one edge are never nested inside each other (a
            # simple path uses an edge at most once), so each removal takes
            # exactly its own top out of this bucket: drain it from the tail.
            appearances = self.edge_index.get(key)
            while appearances:
                self._remove_subtree(appearances[-1])
            # What is left of a and b at the deepest level no longer has
            # the edge on its root path: each implied one appearance of it.
            self._book_implied_edge(a, b, self.graph.edge_label(a, b), -1)
            self.graph.remove_edge(a, b)
            self.stats["edges_deleted"] += 1
            for vertex in (a, b):
                if self.graph.has_vertex(vertex) and self.graph.degree(vertex) == 0:
                    self._remove_vertex(vertex)

    def _remove_subtree(self, top: TreeNode) -> None:
        """Detach ``top`` (a non-root tree node) and its whole subtree,
        unindexing every node and reversing every NPV contribution, implied
        ones included.  Removed inner nodes lose their children (``top`` its
        parent), so what is detached points upwards only and needs no cycle
        collector to be freed."""
        parent = top.parent
        if parent is None:
            raise GraphError("cannot remove the root of an NNT as a subtree")
        root_vertex = top.root_vertex
        deepest = self._deepest
        node_index = self.node_index
        edge_index = self.edge_index
        removed = 0
        stack = [top]  # descendants() inlined: the generator costs ~10% here
        while stack:
            node = stack.pop()
            if node.depth == deepest:  # root path intact: parent links stay
                removed += self._book_implied(node, -1)
            elif node.children:
                stack.extend(node.children.values())
                node.children.clear()
            # Swap-with-last removal from both buckets.
            bucket = node_index[node.graph_vertex]
            last = bucket.pop()
            if last is not node:
                bucket[node.vpos] = last
                last.vpos = node.vpos
            assert node.parent is not None
            key = edge_key(node.parent.graph_vertex, node.graph_vertex)
            bucket = edge_index[key]
            last = bucket.pop()
            if last is not node:
                bucket[node.epos] = last
                last.epos = node.epos
            elif not bucket:
                del edge_index[key]
            self._book(root_vertex, node.dim, -1)  # dim cached at creation
            removed += 1
        del parent.children[top.graph_vertex]
        top.parent = None
        self.num_tree_nodes -= removed
        self.stats["tree_nodes_removed"] += removed

    # ------------------------------------------------------------------
    # vertex lifecycle
    # ------------------------------------------------------------------
    def _create_vertex(self, vertex: VertexId, label: Label) -> None:
        self.graph.add_vertex(vertex, label)
        self._plant_root(vertex)
        for listener in self.listeners:
            listener.on_vertex_added(vertex)

    def _plant_root(self, vertex: VertexId) -> None:
        """A graph vertex's bare NNT: a root in slot 0 of its ``I_node`` bucket, an empty NPV."""
        tree = NNT(vertex, self.depth_limit)
        tree.root.root_vertex = vertex
        tree.root.vpos = 0
        self.trees[vertex] = tree
        self.node_index[vertex] = [tree.root]
        self.npvs[vertex] = {}
        self.num_tree_nodes += 1

    def _remove_vertex(self, vertex: VertexId) -> None:
        """Drop a now-isolated vertex.

        Isolation implies its NNT is a bare root and no other tree holds an
        occurrence of it (every depth >= 1 occurrence crosses one of its
        incident edges, all already deleted), so the cleanup is local.
        """
        tree = self.trees.pop(vertex)
        bucket = self.node_index.pop(vertex)
        if len(bucket) != 1 or bucket[0] is not tree.root:
            raise AssertionError(
                f"isolated vertex {vertex!r} still has NNT occurrences; "
                "index is corrupt"
            )
        leftover = self.npvs.pop(vertex)
        if leftover:
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
    # tree-edge splice primitive
    # ------------------------------------------------------------------
    def _add_tree_edge(
        self, parent: TreeNode, graph_vertex: VertexId, edge_label: Label
    ) -> TreeNode:
        """Create, link and index one tree node above the depth limit (the
        caller counts it)."""
        depth = parent.depth + 1
        child = TreeNode(graph_vertex, parent, depth, edge_label, depth >= self._deepest)
        parent.children[graph_vertex] = child
        # The vertex is in the graph, so its root already opened the bucket.
        bucket = self.node_index[graph_vertex]
        child.vpos = len(bucket)
        bucket.append(child)
        appearances = self.edge_index.setdefault(edge_key(parent.graph_vertex, graph_vertex), [])
        child.epos = len(appearances)
        appearances.append(child)
        # Hot path: cache the owning root and the node's dimension so
        # subtree removal never recomputes either.
        root_vertex = parent.root_vertex
        child.root_vertex = root_vertex
        labels = self.graph.labels
        child.dim = self._dim(depth, labels[parent.graph_vertex], labels[graph_vertex], edge_label)
        self._book(root_vertex, child.dim, +1)
        return child

    def _dim(self, depth: int, parent_label: Label, label: Label, edge_label: Label) -> Dimension:
        """The interned dimension of a tree edge whose child sits at ``depth``."""
        if self._paper_dims:
            dim = (depth, parent_label, label)
        else:
            dim = self.scheme.dimension(depth, parent_label, label, edge_label)
        return self._dims.setdefault(dim, dim)

    def _book(self, root_vertex: VertexId, dim: Dimension, delta: int) -> None:
        """Apply ``delta`` tree edges on ``dim`` to ``NPV(root_vertex)``."""
        add_to_vector(self.npvs[root_vertex], dim, delta)
        self._emit_delta(root_vertex, dim, delta)

    def _book_implied_edge(self, a: VertexId, b: VertexId, edge_label: Label, sign: int) -> None:
        """Every deepest-level occurrence of ``a`` (of ``b``) now indexed
        gains or loses the depth-``l`` tree edge to ``b`` (to ``a``)."""
        labels = self.graph.labels
        deepest = self._deepest
        count = 0
        for vertex, other in ((a, b), (b, a)):
            dim = self._dim(self.depth_limit, labels[vertex], labels[other], edge_label)
            for node in self.node_index[vertex]:
                if node.depth == deepest:
                    count += 1
                    self._book(node.root_vertex, dim, sign)
        self.num_tree_nodes += sign * count
        self.stats["tree_nodes_added" if sign > 0 else "tree_nodes_removed"] += count

    def _book_implied(self, node: TreeNode, sign: int) -> int:
        """Add (``sign=+1``) or reverse (``-1``) the depth-``l`` tree edges
        that ``node``, at the deepest materialised level, stands for — one
        per graph neighbour whose edge is not on its root path — as one
        ``+/-count`` per distinct dimension; returns how many there are."""
        vertex = node.graph_vertex
        labels = self.graph.labels
        counts: dict[tuple, int] = {}
        for neighbor, edge_label in self.graph.neighbor_items(vertex):
            if not node.edge_on_root_path(vertex, neighbor):
                key = (labels[neighbor], edge_label)
                counts[key] = counts.get(key, 0) + 1
        for (label, edge_label), count in counts.items():
            dim = self._dim(self.depth_limit, labels[vertex], label, edge_label)
            self._book(node.root_vertex, dim, sign * count)
        return sum(counts.values())

    # ------------------------------------------------------------------
    # integrity checking (used heavily by the test suite)
    # ------------------------------------------------------------------
    def check_integrity(self) -> None:
        """Verify every cross-structure invariant; raise AssertionError if
        any is violated.  O(total tree size) — for tests and debugging."""
        from .builder import build_nnt  # local import avoids a cycle
        from .projection import project_tree

        if set(self.trees) != set(self.graph.vertices()):
            raise AssertionError("tree set does not match graph vertex set")
        if self._batch_depth or self._pending:
            raise AssertionError("integrity checked inside an open delta batch")
        label_of = self.graph.vertex_label
        deepest = self._deepest
        live = logical = 0
        for vertex, tree in self.trees.items():
            if tree.root_vertex != vertex:
                raise AssertionError(f"tree of {vertex!r} rooted elsewhere")
            # Full-depth reference: its projection verifies the implied level.
            expected = build_nnt(self.graph, vertex, self.depth_limit)
            logical += expected.size()
            if project_tree(expected, label_of, self.scheme) != self.npvs[vertex]:
                raise AssertionError(f"NPV of {vertex!r} diverged from fresh projection")
            stored = build_nnt(self.graph, vertex, deepest) if deepest else NNT(vertex, 1)
            if tree.canonical_form(label_of) != stored.canonical_form(label_of):
                raise AssertionError(f"NNT of {vertex!r} diverged from fresh build")
            for node in tree.nodes():
                live += 1
                if node.root_vertex != vertex:
                    raise AssertionError("tree node caches the wrong root vertex")
                if not _in_slot(self.node_index.get(node.graph_vertex, ()), node.vpos, node):
                    raise AssertionError("tree node missing from node index")
                if node.parent is None:
                    continue
                if (node.children is NO_CHILDREN) != (node.depth >= deepest):
                    raise AssertionError("children dict at the deepest level or none above it")
                key = edge_key(node.parent.graph_vertex, node.graph_vertex)
                if not _in_slot(self.edge_index.get(key, ()), node.epos, node):
                    raise AssertionError("tree edge missing from edge index")
                if node.dim is not self._dims.get(node.dim):
                    raise AssertionError("tree node dimension is not the interned one")
        if self.num_tree_nodes != logical:
            raise AssertionError(
                f"running tree-node counter ({self.num_tree_nodes}) diverged "
                f"from the fresh full-depth builds ({logical})"
            )
        # Every live node was found in a slot of its own above, so equal
        # totals leave no room for a stale or duplicated bucket entry.
        if sum(map(len, self.node_index.values())) != live:
            raise AssertionError("stale node-index entry")
        if sum(map(len, self.edge_index.values())) != live - len(self.trees):
            raise AssertionError("stale edge-index entry")
        if not all(self.edge_index.values()):
            raise AssertionError("empty edge-index bucket left behind")


def _in_slot(bucket: Sequence[TreeNode], pos: int, node: TreeNode) -> bool:
    """Does ``bucket`` hold ``node`` at the slot the node remembers?"""
    return 0 <= pos < len(bucket) and bucket[pos] is node


def index_graphs(
    graphs: Iterable[LabeledGraph],
    depth_limit: int = 3,
    scheme: DimensionScheme = PAPER_SCHEME,
) -> list[NNTIndex]:
    """Build an :class:`NNTIndex` per graph (bulk helper for experiments)."""
    return [NNTIndex(graph, depth_limit, scheme) for graph in graphs]
