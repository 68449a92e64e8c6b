"""White-box tests of the join engines' internal structures: the DSC
counters and the skyline engine's per-dimension statistics must match
their definitions after arbitrary churn."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import EdgeChange, GraphChangeOperation, LabeledGraph
from repro.join import QuerySet, StreamListenerAdapter, make_engine
from repro.join.dominated_set_cover import DominatedSetCoverJoin
from repro.join.skyline import SkylineEarlyStopJoin
from repro.nnt import NNTIndex, dominates

from .conftest import random_labeled_graph


def small_queries(rng, count=3):
    return {
        f"q{i}": random_labeled_graph(rng, rng.randint(2, 4), extra_edges=1)
        for i in range(count)
    }


def churn(rng, index, steps=60):
    for _ in range(steps):
        edges = list(index.graph.edges())
        vertices = list(index.graph.vertices())
        if edges and rng.random() < 0.45:
            u, v, _ = rng.choice(edges)
            index.delete_edge(u, v)
        elif len(vertices) >= 2:
            u, v = rng.sample(vertices, 2)
            if not index.graph.has_edge(u, v):
                index.insert_edge(u, v, rng.choice("xy"))
        else:
            index.insert_edge(0, 1, "x", "A", "B")


def live_records(query_set):
    """The query vectors some live group owns (a retired group's slots
    keep stale records until a new group reuses them)."""
    return [
        query_set.vectors[index]
        for group in query_set.groups.values()
        for index in group.indices
    ]


def assert_dominant_rows_match_definition(query_set, engine):
    records = live_records(query_set)
    for stream_id, state in engine._streams.items():
        for vertex, vector in engine._vectors[stream_id].items():
            row = state.dominant[vertex]
            for record in records:
                expected = sum(
                    1
                    for dim, value in record.vector.items()
                    if vector.get(dim, 0) >= value
                )
                assert row[record.index] == expected, (vertex, record.index)


def assert_retired_slots_read_zero(query_set, engine):
    """Every slot no live group owns is zero in every row; returns them."""
    live = {record.index for record in live_records(query_set)}
    free = [slot for slot in range(len(engine._required)) if slot not in live]
    for state in engine._streams.values():
        for vertex, row in state.dominant.items():
            assert not any(row[slot] for slot in free), (vertex, free)
    return free


class TestDSCCounters:
    def setup_engine(self, seed):
        rng = random.Random(seed)
        query_set = QuerySet(small_queries(rng), depth_limit=2)
        engine = DominatedSetCoverJoin(query_set)
        index = NNTIndex(random_labeled_graph(rng, 6, extra_edges=3), depth_limit=2)
        engine.register_stream(0, index.npvs)
        index.add_listener(StreamListenerAdapter(engine, 0))
        churn(rng, index)
        return query_set, engine, index

    def test_dominant_counters_match_definition(self):
        """dominant[v][qv] must equal the number of qv's non-zero dims in
        which the (restricted) stream vector value is >= the query's."""
        query_set, engine, index = self.setup_engine(11)
        assert_dominant_rows_match_definition(query_set, engine)

    def churned_queries(self, seed):
        """``setup_engine`` plus query churn against the live stream:
        retire two of the three queries, register one, churn the stream."""
        query_set, engine, index = self.setup_engine(seed)
        rng = random.Random(seed + 1000)
        engine.remove_query("q0")
        engine.remove_query("q2")
        engine.add_query("late", random_labeled_graph(rng, 2, extra_edges=0), {0: index.npvs})
        churn(rng, index, steps=20)
        return query_set, engine

    def test_slots_outside_live_groups_read_zero(self):
        query_set, engine = self.churned_queries(15)
        assert_dominant_rows_match_definition(query_set, engine)
        assert assert_retired_slots_read_zero(query_set, engine)  # and there are some

    def test_rows_are_as_long_as_required(self):
        query_set, engine = self.churned_queries(16)
        assert len(engine._required) == len(query_set.vectors)
        for stream_id, state in engine._streams.items():
            assert state.dominant.keys() == engine._vectors[stream_id].keys()
            for row in state.dominant.values():
                assert len(row) == len(engine._required)

    def test_counter_below_zero_raises_instead_of_wrapping(self):
        query_set, engine, index = self.setup_engine(17)
        state = engine._streams[0]
        # An entry whose value reaches past some query value in its dimension.
        vertex, dim, value = next(
            (vertex, dim, value)
            for vertex, vector in index.npvs.items()
            for dim, value in vector.items()
            if dim in engine._dim_values and value >= engine._dim_values[dim][0]
        )
        for slot in range(len(engine._required)):
            state.dominant[vertex][slot] = 0  # corrupt: counters lost
        with pytest.raises(OverflowError):
            engine.batch_update(0, {(vertex, dim): (-value, 0)})  # walks the row downwards

    def test_cover_counts_match_definition(self):
        query_set, engine, index = self.setup_engine(12)
        state = engine._streams[0]
        for record in query_set.vectors:
            expected = sum(
                1
                for vector in engine._vectors[0].values()
                if dominates(vector, record.vector)
            )
            if record.num_dims == 0:
                continue  # trivial vectors excluded from counters
            assert state.cover.get(record.index, 0) == expected

    def test_uncovered_matches_definition(self):
        query_set, engine, index = self.setup_engine(13)
        state = engine._streams[0]
        for query_id, indices in query_set.by_query.items():
            expected = sum(
                1
                for i in indices
                if query_set.vectors[i].num_dims > 0
                and not any(
                    dominates(vector, query_set.vectors[i].vector)
                    for vector in engine._vectors[0].values()
                )
            )
            assert state.uncovered[query_set.group_of[query_id]] == expected

    @pytest.mark.parametrize("name", ("nl", "dsc", "skyline"))
    def test_mirrors_match_restricted_npvs(self, name):
        """What an engine reads of the stream side: ``dsc`` reads
        ``index.npvs`` itself (no copy); ``nl``/``skyline`` keep a copy
        equal to it restricted to the universe after stream churn, after a
        query that brings new dimensions (the backfill) and after it
        retires them (the purge)."""
        rng = random.Random(14)
        query_set = QuerySet(small_queries(rng), depth_limit=2)
        engine = make_engine(name, query_set)
        index = NNTIndex(random_labeled_graph(rng, 6, extra_edges=3), depth_limit=2)
        engine.register_stream(0, index.npvs)
        index.add_listener(StreamListenerAdapter(engine, 0))

        def assert_mirror_is_restricted_npvs():
            universe = query_set.dimension_universe
            expected = {
                vertex: {dim: value for dim, value in vector.items() if dim in universe}
                for vertex, vector in index.npvs.items()
            }
            if name == "dsc":
                assert engine._vectors == {0: index.npvs} and engine._vectors[0] is index.npvs
            else:
                assert engine._vectors == {0: expected}

        churn(rng, index)
        assert_mirror_is_restricted_npvs()
        added = engine.add_query("whole", index.graph.copy(), {0: index.npvs})
        backfilled = [
            dim for vector in index.npvs.values() for dim in vector if dim in added.added_dims
        ]
        assert backfilled  # the stream already had values on the new dimensions
        assert_mirror_is_restricted_npvs()
        churn(rng, index, steps=20)
        assert_mirror_is_restricted_npvs()
        assert engine.remove_query("whole").removed_dims
        assert_mirror_is_restricted_npvs()


def counter_state(engine):
    state = engine._streams[0]
    return dict(state.dominant), dict(state.cover), dict(state.uncovered)


def readd_batch(rng, graph):
    """Delete every edge of one vertex, so it leaves the graph, and
    insert one edge that brings it back: a removal and a re-add inside
    one batch (deletions run first), beside a few other toggles."""
    vertex = rng.choice([v for v in graph.vertices() if graph.degree(v)])
    changes = [EdgeChange.delete(vertex, other) for other in graph.neighbors(vertex)]
    other = rng.choice([v for v in graph.vertices() if v != vertex])
    changes.append(
        EdgeChange.insert(vertex, other, "x", graph.vertex_label(vertex), graph.vertex_label(other))
    )
    return GraphChangeOperation(changes)


def toggle_batch(rng, graph):
    """Up to three edge toggles among vertices 0..7 (labels ``ABCD``)."""
    changes, seen = [], set()
    for _ in range(rng.randint(1, 3)):
        u, v = sorted(rng.sample(range(8), 2))
        if (u, v) in seen:
            continue
        seen.add((u, v))
        if graph.has_edge(u, v):
            changes.append(EdgeChange.delete(u, v))
        else:
            changes.append(EdgeChange.insert(u, v, rng.choice("xy"), "ABCD"[u % 4], "ABCD"[v % 4]))
    return GraphChangeOperation(changes)


class RemovalLog(list):
    """A listener that keeps the vertices it hears leave."""

    def on_vertex_added(self, vertex):
        pass

    def on_vertex_removed(self, vertex):
        self.append(vertex)

    def on_batch_update(self, deltas):
        pass


#: A query with ``D``-labelled vertices: only the stream has that label
#: until it registers, so its registration widens the universe and its
#: deregistration narrows it back.
WIDE = LabeledGraph.from_vertices_and_edges(
    [(0, "D"), (1, "A"), (2, "D")], [(0, 1, "x"), (1, 2, "y")]
)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_property_dsc_counters_equal_a_fresh_seed(seed):
    """After every batch and every query change, a ``dsc`` fed the
    ``(delta, new)`` payloads holds the ``dominant``, ``cover`` and
    ``uncovered`` counters a fresh ``dsc`` seeded from ``index.npvs``
    computes, through a vertex removed and re-added inside one batch, a
    registration that widens the universe and a deregistration that
    narrows it."""
    rng = random.Random(seed)
    query_set = QuerySet(small_queries(rng), depth_limit=3)
    engine = DominatedSetCoverJoin(query_set)
    initial = random_labeled_graph(rng, 6, extra_edges=3, vertex_labels=tuple("ABCD"))
    index = NNTIndex(initial, depth_limit=3)
    engine.register_stream(0, index.npvs)
    index.add_listener(StreamListenerAdapter(engine, 0))
    removed = RemovalLog()
    index.add_listener(removed)
    for kind in ("toggle", "readd", "widen", "toggle", "readd", "narrow") * 2:
        if kind == "widen":
            assert engine.add_query("wide", WIDE, {0: index.npvs}).added_dims
        elif kind == "narrow":
            assert engine.remove_query("wide").removed_dims
        else:
            batch = (readd_batch if kind == "readd" else toggle_batch)(rng, index.graph)
            removed.clear()
            index.apply(batch)
            if kind == "readd":
                back = batch.changes[-1].u
                assert back in removed and index.graph.has_vertex(back)
        fresh = DominatedSetCoverJoin(query_set)
        fresh.register_stream(0, index.npvs)
        assert counter_state(engine) == counter_state(fresh), kind


class TestSkylineInternals:
    def setup_engine(self, seed):
        rng = random.Random(seed)
        query_set = QuerySet(small_queries(rng), depth_limit=2)
        engine = SkylineEarlyStopJoin(query_set)
        index = NNTIndex(random_labeled_graph(rng, 6, extra_edges=3), depth_limit=2)
        engine.register_stream(0, index.npvs)
        index.add_listener(StreamListenerAdapter(engine, 0))
        churn(rng, index)
        return query_set, engine, index

    def test_members_match_mirrors(self):
        query_set, engine, index = self.setup_engine(21)
        state = engine._streams[0]
        expected: dict = {}
        for vertex, vector in engine._vectors[0].items():
            for dim in vector:
                expected.setdefault(dim, set()).add(vertex)
        assert state.members == expected

    def test_max_of_is_true_maximum(self):
        query_set, engine, index = self.setup_engine(22)
        state = engine._streams[0]
        for dim, members in state.members.items():
            true_max = max(engine._vectors[0][v][dim] for v in members)
            assert state.max_of(dim) == true_max

    def test_probe_order_covers_maximal_vectors(self):
        query_set, engine, index = self.setup_engine(23)
        from repro.join.dominance import maximal_vectors

        for query_id, indices in query_set.by_query.items():
            vectors = [query_set.vectors[i].vector for i in indices]
            maximal = {indices[local] for local in maximal_vectors(vectors)}
            group_id = query_set.group_of[query_id]
            assert set(engine._probe_order[group_id]) == maximal

    def test_verdict_cache_respects_version(self):
        query_set, engine, index = self.setup_engine(24)
        query_id = query_set.query_ids()[0]
        group_id = query_set.group_of[query_id]
        first = engine.is_candidate(0, query_id)
        version = engine._streams[0].version
        # (version, verdict, blame memo): the blame is filled on demand.
        assert engine._verdicts[(0, group_id)] == (version, first, None)
        # any change invalidates
        vertices = list(index.graph.vertices())
        if len(vertices) >= 2:
            u, v = vertices[:2]
            if not index.graph.has_edge(u, v):
                index.insert_edge(u, v, "x")
                assert engine._streams[0].version != version
