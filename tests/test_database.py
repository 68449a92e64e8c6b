"""Tests for the static GraphDatabase filter-and-verify API."""

import random

import pytest

from repro import LabeledGraph
from repro.core.database import GraphDatabase
from repro.isomorphism import SubgraphMatcher
from repro.nnt.projection import DimensionScheme

from .conftest import extract_connected_subgraph, random_labeled_graph


def chain(labels, edge_label="-"):
    graph = LabeledGraph()
    for index, label in enumerate(labels):
        graph.add_vertex(index, label)
    for index in range(len(labels) - 1):
        graph.add_edge(index, index + 1, edge_label)
    return graph


class TestConstruction:
    def test_from_list(self):
        db = GraphDatabase.from_list([chain(["A", "B"]), chain(["C", "D"])])
        assert len(db) == 2
        assert set(db.graphs) == {0, 1}

    def test_custom_scheme(self):
        db = GraphDatabase(
            {0: chain(["A", "B"], "x")},
            scheme=DimensionScheme(include_edge_label=True),
        )
        assert db.candidates_for(chain(["A", "B"], "x")) == {0}
        assert db.candidates_for(chain(["A", "B"], "y")) == set()


class TestFiltering:
    def test_basic_filter(self):
        db = GraphDatabase.from_list([chain(["A", "B", "C"]), chain(["C", "C"])])
        assert db.candidates_for(chain(["A", "B"])) == {0}

    def test_search_with_verification(self):
        db = GraphDatabase.from_list([chain(["A", "B", "C"]), chain(["A", "C", "B"])])
        query = chain(["A", "B"])
        assert db.search(query, verify=True) == {0}
        assert db.search(query, verify=False) >= {0}

    def test_search_without_verify_is_filter(self):
        db = GraphDatabase.from_list([chain(["A", "B"])])
        query = chain(["A", "B"])
        assert db.search(query, verify=False) == db.candidates_for(query)

    @pytest.mark.parametrize("trial", range(6))
    def test_filter_is_sound(self, trial):
        rng = random.Random(5100 + trial)
        graphs = [
            random_labeled_graph(rng, rng.randint(4, 8), extra_edges=rng.randint(0, 3))
            for _ in range(6)
        ]
        db = GraphDatabase.from_list(graphs)
        query = extract_connected_subgraph(rng, rng.choice(graphs), 3)
        truth = {
            i for i, g in enumerate(graphs) if SubgraphMatcher(g).is_subgraph(query)
        }
        candidates = db.candidates_for(query)
        assert truth <= candidates
        assert db.search(query, verify=True) == truth

    def test_deeper_index_never_weaker(self):
        rng = random.Random(5200)
        graphs = [random_labeled_graph(rng, 7, extra_edges=3) for _ in range(8)]
        query = extract_connected_subgraph(rng, graphs[0], 3)
        shallow = GraphDatabase.from_list(graphs, depth_limit=1)
        deep = GraphDatabase.from_list(graphs, depth_limit=3)
        assert deep.candidates_for(query) <= shallow.candidates_for(query)

    def test_empty_graph_in_db(self):
        db = GraphDatabase({0: LabeledGraph(), 1: chain(["A", "B"])})
        assert db.candidates_for(chain(["A", "B"])) == {1}

    def test_missing_dimension_rejects(self):
        db = GraphDatabase.from_list([chain(["A", "A"])])
        assert db.candidates_for(chain(["B", "B"])) == set()
