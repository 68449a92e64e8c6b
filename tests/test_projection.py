"""Tests for NPV projection (Definitions 4.1-4.2) and its soundness."""

import random

import pytest
from hypothesis import given, settings

from repro.graph import LabeledGraph
from repro.isomorphism import find_subgraph_isomorphism
from repro.nnt import dominates, project_graph, strictly_dominates, vector_mass
from repro.nnt.branches import enumerate_simple_paths, project_paths
from repro.nnt.projection import (
    DimensionScheme,
    PAPER_SCHEME,
    add_to_vector,
)

from .conftest import extract_connected_subgraph, graph_strategy, random_labeled_graph


def figure7_query() -> LabeledGraph:
    """Figure 7's flavor: A-labeled hub with B/C neighbors."""
    return LabeledGraph.from_vertices_and_edges(
        [(1, "A"), (2, "C"), (3, "B"), (4, "B")],
        [(1, 2, "-"), (1, 3, "-"), (1, 4, "-"), (2, 3, "-")],
    )


class TestDimensionScheme:
    def test_paper_scheme_excludes_edge_label(self):
        dim = PAPER_SCHEME.dimension(2, "A", "B", "bond")
        assert dim == (2, "A", "B")

    def test_extended_scheme_includes_edge_label(self):
        scheme = DimensionScheme(include_edge_label=True)
        assert scheme.dimension(2, "A", "B", "bond") == (2, "A", "B", "bond")

    def test_root_has_no_dimension(self):
        graph = figure7_query()
        assert project_paths(graph, [(1,)]) == {}


class TestProjectTree:
    def test_depth1_counts_neighbor_labels(self):
        graph = figure7_query()
        npv = project_paths(graph, enumerate_simple_paths(graph, 1, 1))
        assert npv == project_graph(graph, 1)[1] == {(1, "A", "B"): 2, (1, "A", "C"): 1}

    def test_counts_sum_to_tree_edges(self):
        graph = figure7_query()
        npvs = project_graph(graph, 3)
        for vertex in graph.vertices():
            paths = enumerate_simple_paths(graph, vertex, 3)
            assert vector_mass(npvs[vertex]) == len(paths) - 1  # every node but the root

    def test_no_zero_entries_stored(self):
        graph = figure7_query()
        npv = project_graph(graph, 2)[1]
        assert all(value > 0 for value in npv.values())

    def test_project_graph_covers_all_vertices(self):
        graph = figure7_query()
        npvs = project_graph(graph, 2)
        assert set(npvs) == set(graph.vertices())


class TestAddToVector:
    def test_add_and_remove(self):
        vector = {}
        add_to_vector(vector, "d", 2)
        assert vector == {"d": 2}
        add_to_vector(vector, "d", -2)
        assert vector == {}

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            add_to_vector({}, "d", -1)


class TestDominance:
    def test_reflexive(self):
        vector = {(1, "A", "B"): 2}
        assert dominates(vector, vector)
        assert not strictly_dominates(vector, vector)

    def test_simple_cases(self):
        big = {"a": 3, "b": 1}
        small = {"a": 2}
        assert dominates(big, small)
        assert not dominates(small, big)
        assert strictly_dominates(big, small)

    def test_missing_dimension_fails(self):
        assert not dominates({"a": 5}, {"b": 1})

    def test_empty_vector_dominated_by_anything(self):
        assert dominates({}, {})
        assert dominates({"a": 1}, {})

    def test_size_shortcut(self):
        # big has fewer non-zero dims than small -> cannot dominate
        assert not dominates({"a": 9}, {"a": 1, "b": 1})


class TestSoundness:
    """Lemma 4.2: a subgraph embedding forces NPV dominance."""

    @pytest.mark.parametrize("trial", range(10))
    @pytest.mark.parametrize("depth", (1, 2, 3))
    def test_embedding_implies_dominance(self, trial, depth):
        rng = random.Random(7000 + trial)
        target = random_labeled_graph(rng, rng.randint(5, 9), extra_edges=rng.randint(0, 4))
        query = extract_connected_subgraph(rng, target, rng.randint(2, 4))
        mapping = find_subgraph_isomorphism(query, target)
        assert mapping is not None
        query_npvs = project_graph(query, depth)
        target_npvs = project_graph(target, depth)
        for query_vertex, target_vertex in mapping.items():
            assert dominates(target_npvs[target_vertex], query_npvs[query_vertex]), (
                query_vertex,
                target_vertex,
            )


@settings(max_examples=30, deadline=None)
@given(graph_strategy(min_vertices=2, max_vertices=7))
def test_property_self_projection_dominates_itself(graph):
    npvs = project_graph(graph, 3)
    for vector in npvs.values():
        assert dominates(vector, vector)


@settings(max_examples=25, deadline=None)
@given(graph_strategy(min_vertices=3, max_vertices=7))
def test_property_removing_an_edge_weakens_vectors(graph):
    """Removing an edge can only shrink every NPV (monotonicity)."""
    edges = list(graph.edges())
    if not edges:
        return
    before = project_graph(graph, 3)
    u, v, _ = edges[0]
    smaller = graph.copy()
    smaller.remove_edge(u, v)
    after = project_graph(smaller, 3)
    for vertex, vector in after.items():
        assert dominates(before[vertex], vector)
