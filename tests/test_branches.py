"""Tests for Lemma 4.1 branch compatibility and its relation to NPV."""

import random

import pytest
from hypothesis import given, settings

from repro.graph import LabeledGraph
from repro.isomorphism import is_subgraph_isomorphic
from repro.nnt import dominates, project_graph
from repro.nnt.branches import BranchFilter, branch_compatible, branch_profile

from .conftest import extract_connected_subgraph, graph_strategy, random_labeled_graph


def chain(labels, edge_label="-"):
    graph = LabeledGraph()
    for index, label in enumerate(labels):
        graph.add_vertex(index, label)
    for index in range(len(labels) - 1):
        graph.add_edge(index, index + 1, edge_label)
    return graph


class TestBranchProfile:
    def test_single_edge(self):
        graph = chain(["A", "B"])
        profile = branch_profile(graph, 0, 2)
        assert profile == {(("-", "B"),): 1}

    def test_prefix_closed(self):
        graph = chain(["A", "B", "C"])
        profile = branch_profile(graph, 0, 2)
        assert (("-", "B"),) in profile
        assert (("-", "B"), ("-", "C")) in profile

    def test_multiplicities(self):
        star = LabeledGraph.from_vertices_and_edges(
            [(0, "A"), (1, "B"), (2, "B")], [(0, 1, "-"), (0, 2, "-")]
        )
        profile = branch_profile(star, 0, 1)
        assert profile == {(("-", "B"),): 2}


class TestBranchCompatible:
    def test_root_label_must_match(self):
        g1 = chain(["A", "B"])
        g2 = chain(["C", "B"])
        p1 = branch_profile(g1, 0, 2)
        p2 = branch_profile(g2, 0, 2)
        assert not branch_compatible(p1, p2, "A", "C")

    def test_subset_multiset(self):
        small = {(("-", "B"),): 1}
        big = {(("-", "B"),): 2, (("-", "C"),): 1}
        assert branch_compatible(small, big, "A", "A")
        assert not branch_compatible(big, small, "A", "A")


class TestBranchFilter:
    def test_rejects_edgeless_never(self):
        query = chain(["A", "B"])
        flt = BranchFilter(query, depth_limit=2)
        assert flt.admits(chain(["A", "B", "C"]))
        assert not flt.admits(chain(["C", "C"]))

    @pytest.mark.parametrize("trial", range(8))
    def test_no_false_negatives(self, trial):
        rng = random.Random(8100 + trial)
        target = random_labeled_graph(rng, rng.randint(5, 8), extra_edges=rng.randint(0, 3))
        query = extract_connected_subgraph(rng, target, 3)
        assert BranchFilter(query, depth_limit=3).admits(target)

    @pytest.mark.parametrize("trial", range(8))
    def test_at_least_as_strong_as_npv(self, trial):
        """Branch compatibility implies NPV dominance pair-wise: the
        branch filter's candidate set is a subset of the NPV filter's."""
        rng = random.Random(8200 + trial)
        query = random_labeled_graph(rng, 4, extra_edges=1)
        target = random_labeled_graph(rng, rng.randint(4, 8), extra_edges=rng.randint(0, 4))
        branch_admits = BranchFilter(query, depth_limit=3).admits(target)
        query_npvs = project_graph(query, 3)
        target_vectors = list(project_graph(target, 3).values())
        npv_admits = all(
            any(dominates(tv, qv) for tv in target_vectors) for qv in query_npvs.values()
        )
        if branch_admits:
            assert npv_admits


@settings(max_examples=20, deadline=None)
@given(graph_strategy(min_vertices=2, max_vertices=6))
def test_property_graph_branch_admits_itself(graph):
    assert BranchFilter(graph, depth_limit=2).admits(graph)


@settings(max_examples=15, deadline=None)
@given(graph_strategy(min_vertices=3, max_vertices=6), graph_strategy(min_vertices=2, max_vertices=5))
def test_property_branch_filter_sound(target, query):
    """If the query truly embeds, the branch filter must admit it."""
    if is_subgraph_isomorphic(query, target):
        assert BranchFilter(query, depth_limit=3).admits(target)
