"""Def 3.1 by brute force, and branch compatibility (Lemma 4.1 of the paper).

``NNT(u)`` is the set of all simple paths (no repeated edge) of length at
most ``l`` from ``u``; :func:`enumerate_simple_paths` lists them with a
plain depth-first search.  It is the package's one Def 3.1 reference:
:meth:`repro.nnt.incremental.NNTIndex.check_integrity` holds the index to
it, and ablation A1's :class:`BranchFilter` reads its branches from it.

``NNT(u)`` is *branch compatible* to ``NNT(v)`` when every root-path
*signature* (the ``(edge label, vertex label)`` pairs from the root) of
``NNT(u)`` appears in ``NNT(v)`` at least as many times — sound, as an
injective subgraph embedding maps distinct simple paths to distinct
simple paths with identical signatures.  This is strictly stronger than
NPV dominance (the NPV forgets the order of labels along a path) but
costs a full enumeration per comparison; ablation A1 measures the trade-off.
"""

from __future__ import annotations

from ..graph.labeled_graph import Label, LabeledGraph, VertexId
from .projection import NPV, DimensionScheme, PAPER_SCHEME

BranchSignature = tuple  # ((edge_label, vertex_label), ...) from the root
BranchProfile = dict  # BranchSignature -> multiplicity


def enumerate_simple_paths(graph: LabeledGraph, root: VertexId, depth_limit: int) -> list[tuple]:
    """All simple paths (no repeated edge) of length <= depth_limit from
    ``root``, as vertex tuples including the root: the nodes of
    ``NNT(root)``, one per path, the bare root ``(root,)`` first."""
    paths: list[tuple] = []

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


def project_paths(
    graph: LabeledGraph, paths: list[tuple], scheme: DimensionScheme = PAPER_SCHEME
) -> NPV:
    """The NPV (Def 4.2) of one root's paths: each path of length ``k >= 1``
    is one tree edge, counted on the dimension of its last step."""
    vector: NPV = {}
    for path in paths:
        if len(path) > 1:
            a, b = path[-2:]
            labels = graph.vertex_label(a), graph.vertex_label(b), graph.edge_label(a, b)
            dim = scheme.dimension(len(path) - 1, *labels)
            vector[dim] = vector.get(dim, 0) + 1
    return vector


def branch_profile(graph: LabeledGraph, root: VertexId, depth_limit: int) -> BranchProfile:
    """Multiset of root-path signatures of every path of length >= 1.

    Because ``NNT(root)`` contains *all* simple paths up to the depth
    limit, the profile is prefix-closed: every prefix of a contained
    signature is itself contained.
    """
    profile: BranchProfile = {}
    signatures: dict[tuple, BranchSignature] = {(root,): ()}  # a prefix is listed first
    for path in enumerate_simple_paths(graph, root, depth_limit)[1:]:
        a, b = path[-2:]
        step = (graph.edge_label(a, b), graph.vertex_label(b))
        signature = signatures[path] = signatures[path[:-1]] + (step,)
        profile[signature] = profile.get(signature, 0) + 1
    return profile


def branch_compatible(
    query_profile: BranchProfile,
    stream_profile: BranchProfile,
    query_root_label: Label,
    stream_root_label: Label,
) -> bool:
    """True iff the query tree's branches all fit inside the stream tree's."""
    if query_root_label != stream_root_label:
        return False
    if len(query_profile) > len(stream_profile):
        return False
    for signature, count in query_profile.items():
        if stream_profile.get(signature, 0) < count:
            return False
    return True


class BranchFilter:
    """Lemma 4.1 as a pair filter: every query vertex must find a
    branch-compatible stream vertex.  Query profiles are computed once,
    the stream's per call: the *expensive* comparison point of ablation A1."""

    def __init__(self, query: LabeledGraph, depth_limit: int = 3) -> None:
        self.query = query
        self.depth_limit = depth_limit
        self._query_profiles = {
            vertex: branch_profile(query, vertex, depth_limit) for vertex in query.vertices()
        }

    def admits(self, stream_graph: LabeledGraph) -> bool:
        """True iff the pair (query, stream_graph) survives the filter."""
        stream_profiles = {
            vertex: branch_profile(stream_graph, vertex, self.depth_limit)
            for vertex in stream_graph.vertices()
        }
        for query_vertex, query_prof in self._query_profiles.items():
            query_label = self.query.vertex_label(query_vertex)
            if not any(
                branch_compatible(query_prof, profile, query_label, stream_graph.vertex_label(v))
                for v, profile in stream_profiles.items()
            ):
                return False
        return True
