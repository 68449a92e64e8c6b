"""Unit tests for Def 3.1's one reference: `enumerate_simple_paths`.

A node of ``NNT(u)`` is one simple path (no repeated edge) of length at
most ``l`` from ``u``; the enumeration lists them, the bare root first.
"""

import random

import pytest
from hypothesis import given, settings

from repro.graph import GraphError, LabeledGraph
from repro.nnt import DimensionScheme, NNTIndex, PAPER_SCHEME, project_graph
from repro.nnt.branches import branch_profile, enumerate_simple_paths, project_paths

from .conftest import graph_strategy, random_labeled_graph


def paper_graph() -> LabeledGraph:
    """The running example's shape: a triangle with a pendant path."""
    return LabeledGraph.from_vertices_and_edges(
        [(1, "A"), (2, "B"), (3, "C"), (4, "B"), (5, "C")],
        [(1, 2, "-"), (1, 3, "-"), (2, 3, "-"), (3, 4, "-"), (4, 5, "-")],
    )


#: NPV(u) of `paper_graph()` at l = 3 under the paper's scheme, by hand:
#: e.g. from 1 the depth-3 trails are 1-2-3-1, 1-2-3-4, 1-3-2-1 and 1-3-4-5.
PAPER_GRAPH_NPVS = {
    1: {
        (1, "A", "B"): 1, (1, "A", "C"): 1, (2, "B", "C"): 1, (2, "C", "B"): 2,
        (3, "C", "A"): 1, (3, "C", "B"): 1, (3, "B", "A"): 1, (3, "B", "C"): 1,
    },
    3: {
        (1, "C", "A"): 1, (1, "C", "B"): 2, (2, "A", "B"): 1, (2, "B", "A"): 1,
        (2, "B", "C"): 1, (3, "B", "C"): 1, (3, "A", "C"): 1,
    },
    5: {(1, "C", "B"): 1, (2, "B", "C"): 1, (3, "C", "A"): 1, (3, "C", "B"): 1},
}


class TestTreeNode:
    """A tree node is a path tuple; the root is the path of length 0."""

    def test_root_properties(self):
        paths = enumerate_simple_paths(paper_graph(), 1, 3)
        assert paths[0] == (1,)
        assert [path for path in paths if len(path) == 1] == [(1,)]

    def test_edge_on_root_path(self):
        # Edge {1, 2} is used going 1 -> 2, so no path takes it back 2 -> 1.
        graph = LabeledGraph.from_vertices_and_edges(
            [(1, "A"), (2, "B"), (3, "C")], [(1, 2, "x"), (2, 3, "y")]
        )
        assert enumerate_simple_paths(graph, 1, 3) == [(1,), (1, 2), (1, 2, 3)]
        assert sorted(enumerate_simple_paths(graph, 2, 3)) == [(2,), (2, 1), (2, 3)]


class TestBuildNNT:
    def test_missing_root_rejected(self):
        with pytest.raises(GraphError):
            enumerate_simple_paths(LabeledGraph(), "v", 2)

    def test_isolated_vertex_tree_is_root_only(self):
        graph = LabeledGraph()
        graph.add_vertex(1, "A")
        assert enumerate_simple_paths(graph, 1, 3) == [(1,)]
        assert project_paths(graph, [(1,)]) == {}

    def test_nodes_match_simple_paths(self):
        graph = paper_graph()
        assert [len(enumerate_simple_paths(graph, 1, depth)) for depth in (1, 2, 3)] == [3, 6, 10]
        for depth in (1, 2, 3):
            index = NNTIndex(graph, depth_limit=depth)
            paths = sum(len(enumerate_simple_paths(graph, v, depth)) for v in graph.vertices())
            assert index.num_tree_nodes == paths, depth

    def test_tree_paths_are_simple(self):
        for path in enumerate_simple_paths(paper_graph(), 1, 3):
            edges = [frozenset(step) for step in zip(path, path[1:])]
            assert len(edges) == len(set(edges))  # no repeated edge

    def test_depth_respected(self):
        paths = enumerate_simple_paths(paper_graph(), 1, 2)
        assert max(len(path) - 1 for path in paths) == 2

    def test_edge_labels_recorded(self):
        graph = LabeledGraph.from_vertices_and_edges(
            [(1, "A"), (2, "B")], [(1, 2, "bond")]
        )
        paths = enumerate_simple_paths(graph, 1, 1)
        scheme = DimensionScheme(include_edge_label=True)
        assert project_paths(graph, paths, scheme) == {(1, "A", "B", "bond"): 1}
        assert branch_profile(graph, 1, 1) == {(("bond", "B"),): 1}

    def test_build_all(self):
        graph = paper_graph()
        for vertex in graph.vertices():
            paths = enumerate_simple_paths(graph, vertex, 2)
            assert paths[0] == (vertex,)
            assert all(path[0] == vertex for path in paths)

    def test_triangle_depth3_revisits_vertex(self):
        # In a triangle, the depth-3 path 1-2-3-1 revisits vertex 1 but
        # repeats no edge, so it must be in the tree (simple = edge-simple).
        graph = LabeledGraph.from_vertices_and_edges(
            [(1, "A"), (2, "B"), (3, "C")],
            [(1, 2, "-"), (2, 3, "-"), (3, 1, "-")],
        )
        deep = [path for path in enumerate_simple_paths(graph, 1, 3) if len(path) == 4]
        assert sorted(deep) == [(1, 2, 3, 1), (1, 3, 2, 1)]  # both directions


@pytest.mark.parametrize("edge_labels", [False, True])
def test_paper_graph_npvs_by_hand(edge_labels):
    graph = paper_graph()
    scheme = DimensionScheme(include_edge_label=edge_labels)
    tail = ("-",) if edge_labels else ()
    trail_walk = project_graph(graph, 3, scheme)
    for root, npv in PAPER_GRAPH_NPVS.items():
        expected = {dim + tail: count for dim, count in npv.items()}
        assert project_paths(graph, enumerate_simple_paths(graph, root, 3), scheme) == expected
        assert trail_walk[root] == expected


class TestSizeBound:
    @pytest.mark.parametrize("trial", range(5))
    def test_size_bounded_by_degree_power(self, trial):
        rng = random.Random(300 + trial)
        graph = random_labeled_graph(rng, 8, extra_edges=4)
        r = graph.max_degree()
        depth = 3
        for vertex in graph.vertices():
            size = len(enumerate_simple_paths(graph, vertex, depth))
            bound = sum(r**k for k in range(depth + 1))
            assert size <= bound


@settings(max_examples=30, deadline=None)
@given(graph_strategy(max_vertices=7))
def test_property_tree_size_equals_path_count(graph):
    """The index's logical node count and NPVs are the paths' (Def 3.1)."""
    index = NNTIndex(graph, depth_limit=3)
    paths = {vertex: enumerate_simple_paths(graph, vertex, 3) for vertex in graph.vertices()}
    assert index.num_tree_nodes == sum(map(len, paths.values()))
    assert index.npvs == {v: project_paths(graph, p, PAPER_SCHEME) for v, p in paths.items()}
