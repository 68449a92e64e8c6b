"""From-scratch NNT construction (Definition 3.1).

:func:`build_nnt` is the reference constructor: a breadth-first expansion
that, at each tree node, follows every incident graph edge not already
used on the path from the root.  The incremental index
(:mod:`repro.nnt.incremental`) counts trails instead of building trees,
and must always agree with the projection of these trees — the test
suite checks exactly that after random update sequences.
"""

from __future__ import annotations

from collections import deque

from ..graph.labeled_graph import LabeledGraph, VertexId
from .projection import NPV, DimensionScheme, PAPER_SCHEME
from .trails import TrailWalk
from .tree import NNT, TreeNode


def build_nnt(graph: LabeledGraph, root: VertexId, depth_limit: int) -> NNT:
    """Build ``NNT(root)`` of ``graph`` up to ``depth_limit``."""
    if not graph.has_vertex(root):
        raise ValueError(f"vertex {root!r} is not in the graph")
    tree = NNT(root, depth_limit)
    queue: deque[TreeNode] = deque([tree.root])
    while queue:
        node = queue.popleft()
        depth = node.depth + 1
        leaf = depth >= depth_limit
        for neighbor, edge_label in graph.neighbor_items(node.graph_vertex):
            if node.edge_on_root_path(node.graph_vertex, neighbor):
                continue
            child = TreeNode(neighbor, node, depth, edge_label, leaf)
            node.children[neighbor] = child
            if not leaf:
                queue.append(child)
    return tree


def build_all_nnts(graph: LabeledGraph, depth_limit: int) -> dict[VertexId, NNT]:
    """NNT of every vertex of ``graph``."""
    return {vertex: build_nnt(graph, vertex, depth_limit) for vertex in graph.vertices()}


def project_graph(
    graph: LabeledGraph,
    depth_limit: int,
    scheme: DimensionScheme = PAPER_SCHEME,
) -> dict[VertexId, NPV]:
    """One-shot NPVs for every vertex: the trail count of an index's bulk
    load (:meth:`repro.nnt.trails.TrailWalk.project`), no index kept."""
    return TrailWalk(graph, depth_limit, scheme, {}).project()[0]


def enumerate_simple_paths(
    graph: LabeledGraph, root: VertexId, depth_limit: int
) -> list[tuple[VertexId, ...]]:
    """All simple paths (no repeated edge) of length <= depth_limit from
    ``root``, as vertex tuples including the root.

    Brute-force oracle used by tests to validate :func:`build_nnt`: the
    paths must correspond one-to-one with NNT root-to-node paths.
    """
    paths: list[tuple[VertexId, ...]] = []

    def extend(path: list[VertexId], used_edges: set[frozenset]) -> None:
        paths.append(tuple(path))
        if len(path) - 1 >= depth_limit:
            return
        current = path[-1]
        for neighbor in graph.neighbors(current):
            key = frozenset((current, neighbor))
            if key in used_edges:
                continue
            used_edges.add(key)
            path.append(neighbor)
            extend(path, used_edges)
            path.pop()
            used_edges.discard(key)

    extend([root], set())
    return paths
