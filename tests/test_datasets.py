"""Tests for the dataset generators (ggen, molecules, reality, streams)."""

import random

import pytest

from repro.datasets import (
    DENSE,
    SPARSE,
    GGen,
    GGenConfig,
    RealityConfig,
    extract_connected_query,
    generate_graph_set,
    generate_molecule,
    generate_molecule_set,
    generate_reality_stream,
    generate_reality_streams,
    inflate_graph,
    make_query_set,
    random_connected_graph,
    synthesize_stream,
    synthesize_streams,
)
from repro.datasets.molecules import ATOMS
from repro.graph import LabeledGraph, edge_key
from repro.isomorphism import is_subgraph_isomorphic


class TestGGen:
    def test_deterministic_given_seed(self):
        a = generate_graph_set(5, seed=1)
        b = generate_graph_set(5, seed=1)
        assert all(x == y for x, y in zip(a, b))

    def test_different_seeds_differ(self):
        a = generate_graph_set(5, seed=1)
        b = generate_graph_set(5, seed=2)
        assert any(x != y for x, y in zip(a, b))

    def test_graphs_connected(self):
        for graph in generate_graph_set(10, graph_size=15.0, seed=3):
            assert graph.is_connected()
            assert graph.num_vertices >= 3

    def test_label_vocabulary(self):
        config = GGenConfig(num_graphs=5, num_vertex_labels=3, num_edge_labels=2, seed=4)
        generator = GGen(config)
        for graph in generator.generate():
            assert {label for _, label in graph.vertex_items()} <= set(generator.vertex_labels)
            assert {label for _, _, label in graph.edges()} <= set(generator.edge_labels)

    def test_target_size_respected(self):
        generator = GGen(GGenConfig(num_graphs=1, seed=5))
        graph = generator.generate_graph(target_size=12)
        assert graph.num_vertices >= 12

    def test_seed_density_knob(self):
        sparse_gen = GGen(GGenConfig(num_graphs=3, seed=6, seed_extra_edge_ratio=0.0))
        dense_gen = GGen(GGenConfig(num_graphs=3, seed=6, seed_extra_edge_ratio=1.5))
        sparse_deg = sum(2 * s.num_edges / s.num_vertices for s in sparse_gen.seeds)
        dense_deg = sum(2 * s.num_edges / s.num_vertices for s in dense_gen.seeds)
        assert dense_deg > sparse_deg

    def test_random_connected_graph_singleton(self):
        graph = random_connected_graph(random.Random(0), 1, ["A"], ["x"])
        assert graph.num_vertices == 1
        assert graph.num_edges == 0


class TestMolecules:
    def test_statistics_near_aids_sample(self):
        molecules = generate_molecule_set(200, seed=1)
        mean_vertices = sum(g.num_vertices for g in molecules) / len(molecules)
        mean_edges = sum(g.num_edges for g in molecules) / len(molecules)
        assert 20 <= mean_vertices <= 30  # paper sample: 24.8
        assert 21 <= mean_edges <= 33  # paper sample: 26.8
        assert mean_edges >= mean_vertices * 0.95

    def test_connected_and_valence_bounded(self):
        valence = {element: v for element, _, v in ATOMS}
        for molecule in generate_molecule_set(30, seed=2):
            assert molecule.is_connected()
            for atom, label in molecule.vertex_items():
                # spanning-tree fallback may exceed valence only when the
                # generator had no capacity anywhere; allow slack of 1
                assert molecule.degree(atom) <= valence[label] + 1

    def test_carbon_dominates(self):
        histogram: dict = {}
        for molecule in generate_molecule_set(50, seed=3):
            for label, count in molecule.label_histogram().items():
                histogram[label] = histogram.get(label, 0) + count
        assert histogram["C"] > sum(v for k, v in histogram.items() if k != "C")

    def test_minimum_size(self):
        rng = random.Random(4)
        for _ in range(20):
            assert generate_molecule(rng, mean_size=4).num_vertices >= 4


class TestReality:
    def test_stream_shape(self):
        stream = generate_reality_stream(random.Random(1), timestamps=10)
        assert len(stream) == 10
        assert stream.initial.num_edges > 0

    def test_device_labels(self):
        config = RealityConfig(num_devices=30)
        stream = generate_reality_stream(random.Random(2), 5, config)
        for _, label in stream.initial.vertex_items():
            assert label.startswith("dev")

    def test_temporal_locality(self):
        config = RealityConfig(num_devices=50, mean_flips_per_timestamp=3.0)
        stream = generate_reality_stream(random.Random(3), 50, config)
        mean_changes = stream.total_changes() / (len(stream) - 1)
        assert mean_changes < 12  # few flips per timestamp

    def test_replayable(self):
        stream = generate_reality_stream(random.Random(4), 20)
        final = stream.final_graph()  # raises if any op is inconsistent
        assert final.num_vertices >= 0

    def test_odd_flips_within_a_batch_are_netted_by_parity(self):
        # An edge flipped three times inside one batch (insert, delete,
        # insert) was netted as a no-op, which left `present` ahead of the
        # emitted changes: a later batch then deleted an edge that was not
        # there (Random(1), t = 274).  final_graph() replays every batch on
        # a LabeledGraph and raises GraphError on such a change.
        generate_reality_stream(random.Random(1), 300).final_graph()
        # The horizon ISSUE 12 names (16 streams x 300 timestamps).
        for stream in generate_reality_streams(16, 300, seed=47):
            stream.final_graph()

    def test_multiple_streams(self):
        streams = generate_reality_streams(3, 5, seed=5)
        assert len(streams) == 3
        assert len({s.name for s in streams}) == 3


class TestStreamGen:
    def base(self):
        return random_connected_graph(random.Random(7), 8, ["A", "B"], ["-"], 0.4)

    def test_initial_is_base(self):
        base = self.base()
        stream = synthesize_stream(base, *DENSE, timestamps=5, rng=random.Random(1))
        assert stream.initial == base

    def test_replayable_all_modes(self):
        base = self.base()
        for kwargs in ({}, {"all_pairs": True}, {"extra_pair_factor": 1.0}):
            stream = synthesize_stream(
                base, *SPARSE, timestamps=8, rng=random.Random(2), **kwargs
            )
            stream.final_graph()  # raises on inconsistency

    def test_base_mode_only_toggles_base_edges(self):
        base = self.base()
        base_keys = {edge_key(u, v) for u, v, _ in base.edges()}
        stream = synthesize_stream(base, *DENSE, timestamps=10, rng=random.Random(3))
        for timestamp in range(len(stream)):
            for u, v, _ in stream.graph_at(timestamp).edges():
                assert edge_key(u, v) in base_keys

    def test_all_pairs_can_add_new_edges(self):
        base = self.base()
        base_keys = {edge_key(u, v) for u, v, _ in base.edges()}
        stream = synthesize_stream(
            base, 0.5, 0.1, timestamps=10, rng=random.Random(4), all_pairs=True
        )
        final_keys = {edge_key(u, v) for u, v, _ in stream.final_graph().edges()}
        assert final_keys - base_keys  # new pairs appeared

    def test_density_ordering(self):
        base = self.base()
        dense = synthesize_stream(base, *DENSE, timestamps=40, rng=random.Random(5))
        sparse = synthesize_stream(base, *SPARSE, timestamps=40, rng=random.Random(5))
        assert dense.final_graph().num_edges >= sparse.final_graph().num_edges

    def test_synthesize_streams_batch(self):
        bases = [self.base() for _ in range(3)]
        streams = synthesize_streams(bases, *DENSE, timestamps=4, seed=6)
        assert len(streams) == 3
        assert all(len(s) == 4 for s in streams)

    def test_inflate_graph(self):
        base = self.base()
        inflated = inflate_graph(base, 1.5, random.Random(7), ["A", "B"], ["-"])
        assert inflated.num_vertices == round(base.num_vertices * 1.5)
        assert inflated.is_connected()
        assert base.num_vertices == 8  # original untouched


class TestQueries:
    def test_extracted_query_is_contained(self):
        rng = random.Random(8)
        graph = random_connected_graph(rng, 10, ["A", "B", "C"], ["-"], 0.5)
        for _ in range(5):
            query = extract_connected_query(graph, 4, rng)
            assert query.is_connected()
            assert query.num_edges <= 4
            assert is_subgraph_isomorphic(query, graph)

    def test_query_size_capped_by_graph(self):
        rng = random.Random(9)
        tiny = random_connected_graph(rng, 3, ["A"], ["-"], 0.0)
        query = extract_connected_query(tiny, 50, rng)
        assert query.num_edges == tiny.num_edges

    def test_edgeless_graph_rejected(self):
        graph = LabeledGraph()
        graph.add_vertex(0, "A")
        with pytest.raises(ValueError):
            extract_connected_query(graph, 2, random.Random(0))

    def test_make_query_set(self):
        graphs = generate_graph_set(5, graph_size=12.0, seed=10)
        queries = make_query_set(graphs, 4, 8, seed=11)
        assert len(queries) == 8
        assert all(q.is_connected() for q in queries)

    def test_make_query_set_requires_edges(self):
        lonely = LabeledGraph()
        lonely.add_vertex(0, "A")
        with pytest.raises(ValueError):
            make_query_set([lonely], 2, 1)
