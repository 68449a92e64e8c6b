"""The three join engines must agree with each other and with the
brute-force oracle, under arbitrary update sequences."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import LabeledGraph
from repro.join import (
    ENGINES,
    QuerySet,
    StreamListenerAdapter,
    make_engine,
    pair_joinable_bruteforce,
)
from repro.nnt import NNTIndex

from .conftest import random_labeled_graph


def small_queries(rng: random.Random, count: int = 4) -> dict:
    return {
        f"q{i}": random_labeled_graph(rng, rng.randint(2, 5), extra_edges=rng.randint(0, 2))
        for i in range(count)
    }


def oracle(indexes: dict, query_set: QuerySet) -> set:
    out = set()
    for stream_id, index in indexes.items():
        stream_vectors = list(index.npvs.values())
        for query_id in query_set.query_ids():
            query_vectors = [
                query_set.vectors[i].vector for i in query_set.by_query[query_id]
            ]
            if pair_joinable_bruteforce(query_vectors, stream_vectors):
                out.add((stream_id, query_id))
    return out


class TestQuerySet:
    def test_vectors_flattened(self, rng):
        queries = small_queries(rng)
        query_set = QuerySet(queries, depth_limit=2)
        assert len(query_set) == len(queries)
        total_vertices = sum(g.num_vertices for g in queries.values())
        # Fingerprint dedup may collapse identical projections, never grow.
        assert len(query_set.vectors) <= total_vertices
        assert query_set.live_vector_count() <= total_vertices
        for query_id, indices in query_set.by_query.items():
            group_id = query_set.group_of[query_id]
            assert query_id in query_set.groups[group_id].members
            assert all(query_set.vectors[i].group == group_id for i in indices)
            assert query_set.groups[group_id].indices is indices

    def test_dimension_universe(self, rng):
        query_set = QuerySet(small_queries(rng), depth_limit=2)
        for record in query_set.vectors:
            assert set(record.vector) <= query_set.dimension_universe


class TestEngineFactory:
    def test_known_engines(self, rng):
        query_set = QuerySet(small_queries(rng), depth_limit=2)
        for name, cls in ENGINES.items():
            assert isinstance(make_engine(name, query_set), cls)

    def test_unknown_engine(self, rng):
        with pytest.raises(ValueError):
            make_engine("quantum", QuerySet(small_queries(rng), depth_limit=2))

    def test_duplicate_stream_rejected(self, rng):
        query_set = QuerySet(small_queries(rng), depth_limit=2)
        for name in ENGINES:
            engine = make_engine(name, query_set)
            engine.register_stream(0, {})
            with pytest.raises(ValueError):
                engine.register_stream(0, {})

    def test_remove_stream(self, rng):
        query_set = QuerySet(small_queries(rng), depth_limit=2)
        for name in ENGINES:
            engine = make_engine(name, query_set)
            engine.register_stream(0, {})
            engine.remove_stream(0)
            assert engine.stream_ids() == []


class TestAnswerTuplesAreKept:
    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_a_pair_that_stays_is_the_same_tuple(self, name):
        """Two polls in a row hand back equal, separate sets holding the
        *same* tuple objects; a removed stream or retired query leaves
        nothing behind in the engine after the next poll."""
        path = LabeledGraph.from_vertices_and_edges(
            [(0, "A"), (1, "B"), (2, "C")], [(0, 1, "x"), (1, 2, "x")]
        )
        engine = make_engine(
            name, QuerySet({"ab": path.subgraph([0, 1]), "abc": path}, depth_limit=2)
        )
        for stream_id in ("s0", "s1"):
            engine.register_stream(stream_id, NNTIndex(path, 2).npvs)
        first = engine.candidates()
        second = engine.candidates()
        assert first is not second
        assert first == second == {(s, q) for s in ("s0", "s1") for q in ("ab", "abc")}
        kept = {pair: pair for pair in first}
        assert all(pair is kept[pair] for pair in second)

        engine.remove_stream("s1")
        engine.remove_query("abc")
        (survivor,) = engine.candidates()
        assert survivor is kept[("s0", "ab")]
        assert set(engine._answer) == {("s0", "ab")}


class TestStaticAgreement:
    @pytest.mark.parametrize("trial", range(6))
    def test_engines_agree_on_random_snapshots(self, trial):
        rng = random.Random(9000 + trial)
        query_set = QuerySet(small_queries(rng), depth_limit=2)
        indexes = {
            sid: NNTIndex(
                random_labeled_graph(rng, rng.randint(3, 9), extra_edges=rng.randint(0, 4)),
                depth_limit=2,
            )
            for sid in range(4)
        }
        expected = oracle(indexes, query_set)
        for name in ENGINES:
            engine = make_engine(name, query_set)
            for sid, index in indexes.items():
                engine.register_stream(sid, index.npvs)
            assert engine.candidates() == expected, name


class TestIncrementalAgreement:
    @pytest.mark.parametrize("depth", (1, 2, 3))
    def test_engines_track_updates(self, depth):
        rng = random.Random(1234 + depth)
        query_set = QuerySet(small_queries(rng), depth_limit=depth)
        engines = {name: make_engine(name, query_set) for name in ENGINES}
        indexes = {}
        for sid in range(3):
            index = NNTIndex(
                random_labeled_graph(rng, rng.randint(4, 8), extra_edges=2),
                depth_limit=depth,
            )
            indexes[sid] = index
            for engine in engines.values():
                engine.register_stream(sid, index.npvs)
                index.add_listener(StreamListenerAdapter(engine, sid))
        for step in range(120):
            sid = rng.choice(list(indexes))
            _mutate(rng, indexes[sid])
            if step % 15 == 0:
                expected = oracle(indexes, query_set)
                for name, engine in engines.items():
                    assert engine.candidates() == expected, (step, name)
        expected = oracle(indexes, query_set)
        for name, engine in engines.items():
            assert engine.candidates() == expected, name

    def test_stream_drained_to_empty(self, rng):
        """Every vertex removed: engines must report no coverage."""
        query_set = QuerySet(small_queries(rng, count=2), depth_limit=2)
        index = NNTIndex(random_labeled_graph(rng, 4, extra_edges=1), depth_limit=2)
        engines = {name: make_engine(name, query_set) for name in ENGINES}
        for name, engine in engines.items():
            engine.register_stream(0, index.npvs)
            index.add_listener(StreamListenerAdapter(engine, 0))
        for u, v, _ in list(index.graph.edges()):
            if index.graph.has_edge(u, v):
                index.delete_edge(u, v)
        assert index.graph.num_vertices == 0
        for name, engine in engines.items():
            assert engine.candidates() == set(), name


def _mutate(rng: random.Random, index: NNTIndex) -> None:
    edges = list(index.graph.edges())
    vertices = list(index.graph.vertices())
    roll = rng.random()
    if edges and roll < 0.45:
        u, v, _ = rng.choice(edges)
        index.delete_edge(u, v)
    elif len(vertices) >= 2 and roll < 0.9:
        u, v = rng.sample(vertices, 2)
        if not index.graph.has_edge(u, v):
            index.insert_edge(u, v, rng.choice(["x", "y"]))
    else:
        new_id = max([v for v in vertices if isinstance(v, int)], default=-1) + 1
        if vertices:
            index.insert_edge(rng.choice(vertices), new_id, "x", None, rng.choice("ABC"))
        else:
            index.insert_edge(new_id, new_id + 1, "x", "A", "B")


class TestEmptyQueryGraph:
    def test_single_vertex_query(self, rng):
        """A one-vertex query has an empty NPV: it is 'covered' exactly
        when the stream has at least one vertex (all engines agree)."""
        lone = LabeledGraph()
        lone.add_vertex(0, "A")
        query_set = QuerySet({"lone": lone}, depth_limit=2)
        stream = random_labeled_graph(rng, 3, extra_edges=1)
        for name in ENGINES:
            engine = make_engine(name, query_set)
            engine.register_stream("full", NNTIndex(stream, 2).npvs)
            engine.register_stream("empty", {})
            assert engine.is_candidate("full", "lone"), name
            assert not engine.is_candidate("empty", "lone"), name


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(0, 100_000), min_size=3, max_size=25))
def test_property_engines_always_agree(seeds):
    rng = random.Random(42)
    query_set = QuerySet(small_queries(rng, count=3), depth_limit=2)
    engines = {name: make_engine(name, query_set) for name in ENGINES}
    index = NNTIndex(random_labeled_graph(rng, 5, extra_edges=2), depth_limit=2)
    for engine in engines.values():
        engine.register_stream(0, index.npvs)
        index.add_listener(StreamListenerAdapter(engine, 0))
    for seed in seeds:
        _mutate(random.Random(seed), index)
    expected = oracle({0: index}, query_set)
    for name, engine in engines.items():
        assert engine.candidates() == expected, name
