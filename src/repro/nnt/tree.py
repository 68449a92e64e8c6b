"""Node-Neighbor Tree structure (Definition 3.1 of the paper).

``NNT(u)`` is a tree rooted at vertex ``u`` containing **all simple paths**
(paths with no repeated edge) of length at most ``l`` starting at ``u`` in
the host graph.  Each tree node corresponds to one occurrence of a graph
vertex at the end of one such path; a tree edge ``parent -> child``
corresponds to one occurrence of a graph edge.

The structure is pointer-based (parent links, children keyed by graph
vertex).  It is the reference form: :func:`~repro.nnt.builder.build_nnt`
builds it, and the incremental index (:mod:`repro.nnt.incremental`),
which stores no tree, is checked against its projection.

Memory layout: with branching factor ``r`` about ``(r-1)/r`` of a tree's
nodes sit at the depth limit, where no child can ever hang, so a node
created as a *leaf* shares one read-only empty ``children`` mapping and
only inner nodes own a dict.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterator, cast

from ..graph.labeled_graph import Label, VertexId

#: The ``children`` of every leaf: read-only (a write raises ``TypeError``
#: rather than leak into every other leaf), typed as the dict it stands in for.
NO_CHILDREN = cast("dict[VertexId, TreeNode]", MappingProxyType({}))


class TreeNode:
    """One node of an NNT: a graph vertex at the end of one simple path.

    ``children`` is keyed by the child's graph vertex: from a given tree
    node at graph vertex ``g``, a graph edge ``(g, x)`` can extend the path
    in at most one way, so keys are unique.  ``leaf=True`` declares that
    no child will ever be added (the node sits at the deepest level its
    tree stores): ``children`` is then the shared :data:`NO_CHILDREN`.
    """

    __slots__ = ("graph_vertex", "parent", "children", "depth", "edge_label")

    def __init__(
        self,
        graph_vertex: VertexId,
        parent: "TreeNode | None" = None,
        depth: int = 0,
        edge_label: Label | None = None,
        leaf: bool = False,
    ) -> None:
        self.graph_vertex = graph_vertex
        self.parent = parent
        self.children: dict[VertexId, TreeNode] = NO_CHILDREN if leaf else {}
        self.depth = depth
        # Label of the graph edge (parent.graph_vertex, graph_vertex);
        # None for the root.
        self.edge_label = edge_label

    def is_root(self) -> bool:
        """Is this the tree's root node?"""
        return self.parent is None

    def root_path_vertices(self) -> list[VertexId]:
        """Graph vertices on the path root -> this node (root first)."""
        path: list[VertexId] = []
        node: TreeNode | None = self
        while node is not None:
            path.append(node.graph_vertex)
            node = node.parent
        path.reverse()
        return path

    def edge_on_root_path(self, a: VertexId, b: VertexId) -> bool:
        """True iff graph edge ``{a, b}`` already lies on the root path.

        Walking parent links costs O(depth); depths are bounded by the
        small NNT depth ``l`` (the paper fixes 3) so this beats storing a
        per-node edge set.
        """
        node: TreeNode = self
        while node.parent is not None:
            x, y = node.graph_vertex, node.parent.graph_vertex
            if (x == a and y == b) or (x == b and y == a):
                return True
            node = node.parent
        return False

    def descendants(self, include_self: bool = True) -> Iterator["TreeNode"]:
        """Iterate the subtree under this node, preorder."""
        stack = [self]
        while stack:
            node = stack.pop()
            if include_self or node is not self:
                yield node
            stack.extend(node.children.values())

    def __repr__(self) -> str:
        return f"TreeNode(vertex={self.graph_vertex!r}, depth={self.depth})"


class NNT:
    """A node-neighbor tree rooted at one graph vertex."""

    __slots__ = ("root", "depth_limit")

    def __init__(self, root_vertex: VertexId, depth_limit: int) -> None:
        if depth_limit < 1:
            raise ValueError("NNT depth limit must be at least 1")
        self.root = TreeNode(root_vertex)
        self.depth_limit = depth_limit

    @property
    def root_vertex(self) -> VertexId:
        return self.root.graph_vertex

    def nodes(self) -> Iterator[TreeNode]:
        """All tree nodes, preorder from the root."""
        return self.root.descendants()

    def tree_edges(self) -> Iterator[tuple[TreeNode, TreeNode]]:
        """All tree edges as ``(parent, child)`` pairs."""
        for node in self.nodes():
            for child in node.children.values():
                yield node, child

    def size(self) -> int:
        """Number of tree nodes (>= 1)."""
        return sum(1 for _ in self.nodes())

    def num_tree_edges(self) -> int:
        """Number of tree edges (= size - 1)."""
        return self.size() - 1

    def branches(self) -> Iterator[list[TreeNode]]:
        """Root-to-leaf node paths, each a maximal simple path occurrence."""
        stack: list[list[TreeNode]] = [[self.root]]
        while stack:
            path = stack.pop()
            node = path[-1]
            if not node.children:
                yield path
            else:
                for child in node.children.values():
                    stack.append(path + [child])

    def canonical_form(self, label_of) -> tuple:
        """Order-independent nested-tuple form, for structural comparison.

        ``label_of`` maps a graph vertex to its label; labels (not raw
        vertex ids) are used so two NNTs of isomorphic neighborhoods
        compare equal.
        """

        def form(node: TreeNode) -> tuple:
            child_forms = sorted(
                (repr((child.edge_label, form(child))), (child.edge_label, form(child)))
                for child in node.children.values()
            )
            return (label_of(node.graph_vertex), tuple(f for _, f in child_forms))

        return form(self.root)

    def __repr__(self) -> str:
        return f"NNT(root={self.root_vertex!r}, depth_limit={self.depth_limit})"
