"""Incremental NNT maintenance must always agree with a fresh rebuild.

These are the paper's Figures 4-5 procedures; the tests drive random
insert/delete sequences and check the full cross-structure invariants
(`NNTIndex.check_integrity`) plus listener-delta consistency.
"""

import contextlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import StreamMonitor
from repro.graph import EdgeChange, GraphChangeOperation, GraphError, LabeledGraph
from repro.graph.operations import apply_change, apply_operation
from repro.nnt import NNTIndex, project_graph
from repro.nnt.branches import enumerate_simple_paths
from repro.nnt.projection import PAPER_SCHEME, DimensionScheme

from .conftest import random_labeled_graph


def paper_graph() -> LabeledGraph:
    return LabeledGraph.from_vertices_and_edges(
        [(1, "A"), (2, "B"), (3, "C"), (4, "B"), (5, "C")],
        [(1, 2, "-"), (1, 3, "-"), (2, 3, "-"), (3, 4, "-"), (4, 5, "-")],
    )


class RecordingListener:
    """Mirrors NPVs from deltas; used to validate the listener protocol.

    A removed vertex's zeroing deltas are purged instead of flushed, so
    the mirror discards whatever remains — the contract the join
    engines implement.  Each delivered entry's new value must be the
    mirrored value plus its delta.
    """

    def __init__(self):
        self.vectors = {}

    def on_vertex_added(self, vertex):
        assert vertex not in self.vectors
        self.vectors[vertex] = {}

    def on_vertex_removed(self, vertex):
        del self.vectors[vertex]

    def on_batch_update(self, deltas):
        for (vertex, dim), (delta, new) in deltas.items():
            vector = self.vectors[vertex]
            value = vector.get(dim, 0) + delta
            assert value == new >= 0
            if value:
                vector[dim] = value
            else:
                del vector[dim]


class TestInitialBuild:
    def test_matches_fresh_projection(self):
        graph = paper_graph()
        index = NNTIndex(graph, depth_limit=2)
        assert index.npvs == project_graph(graph, 2)
        index.check_integrity()

    def test_owns_a_copy_of_the_graph(self):
        graph = paper_graph()
        index = NNTIndex(graph, depth_limit=2)
        graph.remove_edge(1, 2)  # external mutation must not desync
        index.check_integrity()

    def test_later_changes_to_the_callers_graph_do_not_reach_the_index(self):
        graph = paper_graph()
        index = NNTIndex(graph, depth_limit=3)
        built_from = graph.copy()
        graph.add_vertex(6, "A")
        graph.add_edge(6, 1, "-")
        graph.remove_edge(4, 5)
        graph.remove_vertex(5)
        assert index.graph is not graph and index.graph == built_from
        assert index.npvs == project_graph(built_from, 3)
        index.check_integrity()

    def test_empty_start(self):
        index = NNTIndex(depth_limit=3)
        assert index.npvs == {}
        index.check_integrity()

    def test_depth_validated(self):
        with pytest.raises(ValueError):
            NNTIndex(depth_limit=0)


class TestInsert:
    def test_insert_between_existing(self):
        index = NNTIndex(paper_graph(), depth_limit=2)
        index.insert_edge(1, 4, "-")
        index.check_integrity()
        assert index.graph.has_edge(1, 4)

    def test_insert_creates_vertex(self):
        index = NNTIndex(paper_graph(), depth_limit=2)
        index.insert_edge(5, 6, "-", b_label="D")
        index.check_integrity()
        assert index.graph.vertex_label(6) == "D"
        assert 6 in index.npvs

    def test_insert_new_vertex_without_label_fails(self):
        index = NNTIndex(paper_graph(), depth_limit=2)
        with pytest.raises(GraphError):
            index.insert_edge(5, 6, "-")

    def test_duplicate_edge_rejected(self):
        index = NNTIndex(paper_graph(), depth_limit=2)
        with pytest.raises(GraphError):
            index.insert_edge(1, 2, "-")

    @pytest.mark.parametrize(
        "refused",
        [
            (1, 2, "-", "A", None),  # no label for the new vertex 2
            (3, 3, "-", "A", "A"),  # self loop
        ],
    )
    def test_refused_insert_leaves_no_trace(self, refused):
        """A refused insert raises before the first mutation: no phantom
        endpoint in the graph, the trees, the NPVs or a listener's mirror."""
        index = NNTIndex(depth_limit=3)
        listener = RecordingListener()
        index.add_listener(listener)
        with pytest.raises(GraphError):
            index.insert_edge(*refused)
        assert index.graph.num_vertices == 0 and index.num_tree_nodes == 0
        assert not index.npvs and not listener.vectors
        index.check_integrity()

    def test_refused_insert_does_not_flip_the_trivial_query(self):
        """An engine mirroring a phantom vertex would call a one-vertex
        query a candidate of the (still empty) stream."""
        dot = LabeledGraph.from_vertices_and_edges([(0, "A")])
        monitor = StreamMonitor({"dot": dot})
        monitor.add_stream("s")
        with pytest.raises(GraphError):
            monitor.apply("s", EdgeChange.insert(1, 2, "-", "A", None))
        assert monitor.matches() == set()

    def test_first_edge_of_empty_index(self):
        index = NNTIndex(depth_limit=2)
        index.insert_edge("a", "b", "-", "A", "B")
        index.check_integrity()
        assert index.npv("a") == {(1, "A", "B"): 1}
        assert index.npv("b") == {(1, "B", "A"): 1}


class TestDelete:
    def test_delete_edge(self):
        index = NNTIndex(paper_graph(), depth_limit=2)
        index.delete_edge(1, 3)
        index.check_integrity()
        assert not index.graph.has_edge(1, 3)

    def test_delete_missing_edge_rejected(self):
        index = NNTIndex(paper_graph(), depth_limit=2)
        with pytest.raises(GraphError):
            index.delete_edge(1, 4)

    def test_delete_isolating_drops_vertex(self):
        index = NNTIndex(paper_graph(), depth_limit=2)
        index.delete_edge(4, 5)
        index.check_integrity()
        assert not index.graph.has_vertex(5)
        assert 5 not in index.npvs

    def test_delete_last_edge_empties_index(self):
        index = NNTIndex(depth_limit=2)
        index.insert_edge("a", "b", "-", "A", "B")
        index.delete_edge("a", "b")
        index.check_integrity()
        assert index.graph.num_vertices == 0
        assert index.npvs == {}


class TestBatches:
    def test_apply_runs_deletions_first(self):
        index = NNTIndex(paper_graph(), depth_limit=2)
        index.apply(
            GraphChangeOperation(
                [
                    EdgeChange.insert(2, 4, "-"),
                    EdgeChange.delete(3, 4),
                ]
            )
        )
        index.check_integrity()
        assert index.graph.has_edge(2, 4)
        assert not index.graph.has_edge(3, 4)

    def test_stats_accumulate(self):
        index = NNTIndex(paper_graph(), depth_limit=2)
        index.insert_edge(1, 4, "-")
        index.delete_edge(1, 4)
        assert index.stats["edges_inserted"] == 1
        assert index.stats["edges_deleted"] == 1
        assert index.stats["tree_nodes_added"] > 0
        assert index.stats["tree_nodes_removed"] > 0


class TestListeners:
    @pytest.mark.parametrize("widened", (True, False))
    def test_listener_mirror_tracks_npvs(self, widened):
        """One coalescing scope per edge change, or widened over four
        (vertices removed and re-created mid-scope included)."""
        rng = random.Random(99)
        index = NNTIndex(paper_graph(), depth_limit=3)
        listener = RecordingListener()
        for vertex in index.graph.vertices():
            listener.vectors[vertex] = dict(index.npv(vertex))
        index.add_listener(listener)
        for _ in range(30):
            with index.batch() if widened else contextlib.nullcontext():
                for _ in range(4):
                    _random_step(rng, index)
            assert listener.vectors == index.npvs

    def test_no_notifications_during_initial_build(self):
        listener = RecordingListener()
        index = NNTIndex(depth_limit=2)
        index.add_listener(listener)
        # Listener attached before any change: sees everything from zero.
        index.insert_edge(1, 2, "-", "A", "B")
        assert listener.vectors == index.npvs

    def test_no_notifications_during_a_build_from_a_graph(self):
        """The bulk load delivers and queues nothing; a listener attached
        afterwards starts from the finished NPVs and needs nothing else."""
        index = NNTIndex(paper_graph(), depth_limit=3)
        assert index.stats["deltas_delivered"] == 0 and not index._pending
        listener = RecordingListener()
        listener.vectors = {vertex: dict(npv) for vertex, npv in index.npvs.items()}
        index.add_listener(listener)
        rng = random.Random(214)
        for _ in range(30):
            _random_step(rng, index)
            assert listener.vectors == index.npvs
        index.check_integrity()


def _random_step(rng: random.Random, index: NNTIndex) -> None:
    edges = list(index.graph.edges())
    vertices = list(index.graph.vertices())
    if edges and rng.random() < 0.45:
        u, v, _ = rng.choice(edges)
        index.delete_edge(u, v)
    elif len(vertices) >= 2 and rng.random() < 0.8:
        u, v = rng.sample(vertices, 2)
        if not index.graph.has_edge(u, v):
            index.insert_edge(u, v, rng.choice(["-", "="]))
    else:
        new_id = max([v for v in vertices if isinstance(v, int)], default=0) + 1
        anchor = rng.choice(vertices) if vertices else None
        if anchor is None:
            index.insert_edge(new_id, new_id + 1, "-", "A", "B")
        else:
            index.insert_edge(anchor, new_id, "-", None, rng.choice(["A", "B", "C"]))


class TestFuzz:
    @pytest.mark.parametrize("depth", (1, 2, 3))
    def test_random_sequences_keep_integrity(self, depth):
        rng = random.Random(500 + depth)
        index = NNTIndex(random_labeled_graph(rng, 6, extra_edges=3), depth_limit=depth)
        for step in range(150):
            _random_step(rng, index)
            if step % 30 == 0:
                index.check_integrity()
        index.check_integrity()
        assert index.npvs == project_graph(index.graph, depth)

    def test_edge_label_scheme_fuzz(self):
        rng = random.Random(4242)
        scheme = DimensionScheme(include_edge_label=True)
        index = NNTIndex(
            random_labeled_graph(rng, 6, extra_edges=3), depth_limit=2, scheme=scheme
        )
        for _ in range(100):
            _random_step(rng, index)
        index.check_integrity()
        assert index.npvs == project_graph(index.graph, 2, scheme)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 10_000), min_size=5, max_size=40))
def test_property_operation_stream_consistency(seeds):
    """Any operation sequence leaves the index equal to a fresh build."""
    rng = random.Random(1)
    index = NNTIndex(depth_limit=2)
    index.insert_edge(0, 1, "-", "A", "B")
    for seed in seeds:
        _random_step(random.Random(seed), index)
        if index.graph.num_vertices == 0:
            index.insert_edge(0, 1, "-", "A", "B")
    assert index.npvs == project_graph(index.graph, 2)
    index.check_integrity()


@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from((1, 2, 3, 4)),
    st.booleans(),
    st.lists(st.integers(0, 10_000), min_size=5, max_size=30),
)
def test_property_depth_limit_level_is_derived_from_the_graph(depth, edge_labels, seeds):
    """The index materialises levels 0..l-1 and implies level l (at l = 1
    the roots are the deepest level): after every step, under both
    dimension schemes, the NPVs, the logical node counter and a mirror
    replaying the delivered deltas equal what full-depth fresh builds give."""
    scheme = DimensionScheme(include_edge_label=edge_labels)
    index = NNTIndex(depth_limit=depth, scheme=scheme)
    listener = RecordingListener()
    index.add_listener(listener)
    for seed in seeds:
        _random_step(random.Random(seed), index)
        assert index.npvs == project_graph(index.graph, depth, scheme) == listener.vectors
        paths = (enumerate_simple_paths(index.graph, v, depth) for v in index.graph.vertices())
        assert index.num_tree_nodes == sum(map(len, paths))
    index.check_integrity()


class CountingBatchListener(RecordingListener):
    """The mirror, counting every callback it is sent."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def on_vertex_added(self, vertex):
        self.calls += 1
        super().on_vertex_added(vertex)

    def on_vertex_removed(self, vertex):
        self.calls += 1
        super().on_vertex_removed(vertex)

    def on_batch_update(self, deltas):
        self.calls += 1
        super().on_batch_update(deltas)


def _random_batch(rng: random.Random, graph: LabeledGraph) -> GraphChangeOperation:
    """A batch that is valid against ``graph`` — built on a scratch copy
    in processing order — into which, half the time, one change the
    graph should refuse is dropped at a random position."""
    scratch = graph.copy()
    changes = []

    def add(change: EdgeChange) -> None:
        changes.append(change)
        apply_change(scratch, change)

    edges = list(scratch.edges())
    for u, v, _ in rng.sample(edges, min(rng.randint(0, 2), len(edges))):
        add(EdgeChange.delete(u, v))
    fresh = max(list(graph.vertices()) + [0]) + 1  # ids from here up are unused
    for _ in range(rng.randint(0, 3)):
        vertices = list(scratch.vertices())
        if len(vertices) >= 2 and rng.random() < 0.6:
            u, v = rng.sample(vertices, 2)
            if scratch.has_edge(u, v):
                continue
        else:
            u, v, fresh = (rng.choice(vertices) if vertices else fresh + 1), fresh, fresh + 2
        labels = [
            graph.vertex_label(w) if graph.has_vertex(w) else rng.choice("ABC")
            for w in (u, v)
        ]
        add(EdgeChange.insert(u, v, rng.choice("-="), *labels))
    if rng.random() < 0.5:
        poison = [
            EdgeChange.delete(9_000, 9_001),  # no such edge
            EdgeChange.insert(fresh, 9_002, "-", "A"),  # 9_002 gets no label
        ]
        if scratch.num_edges:
            u, v, label = rng.choice(list(scratch.edges()))
            poison.append(EdgeChange.insert(u, v, label))  # there after the batch
        changes.insert(rng.randint(0, len(changes)), rng.choice(poison))
    return GraphChangeOperation(changes)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from((1, 2, 3)),
    st.booleans(),
    st.lists(st.integers(0, 10_000), min_size=5, max_size=25),
)
def test_property_refused_batches_reach_no_listener(depth, edge_labels, seeds):
    """Random valid and invalid batches: a batch the graph refuses
    (judged by plain ``apply_operation`` on a copy) raises, delivers no
    delta and no vertex event, and leaves the graph as it was; after
    every step the listener's mirror equals a fresh projection."""
    scheme = DimensionScheme(include_edge_label=edge_labels)
    index = NNTIndex(paper_graph(), depth_limit=depth, scheme=scheme)
    listener = CountingBatchListener()
    listener.vectors = {vertex: dict(npv) for vertex, npv in index.npvs.items()}
    index.add_listener(listener)
    for seed in seeds:
        batch = _random_batch(random.Random(seed), index.graph)
        expected = index.graph.copy()
        try:
            apply_operation(expected, batch)
        except GraphError:
            before, calls = index.graph.copy(), listener.calls
            with pytest.raises(GraphError):
                index.apply(batch)
            assert index.graph == before
            assert listener.calls == calls
        else:
            index.apply(batch)
            assert index.graph == expected
        assert listener.vectors == index.npvs == project_graph(index.graph, depth, scheme)
    index.check_integrity()


class NetDeltaRecorder:
    """Keeps every coalesced mapping it is handed."""

    def __init__(self):
        self.batches = []

    def on_vertex_added(self, vertex):
        pass

    def on_vertex_removed(self, vertex):
        pass

    def on_batch_update(self, deltas):
        self.batches.append(dict(deltas))


@st.composite
def labelled_graphs(draw):
    """Up to 8 vertices over 3 labels, any set of edges over 1-3 edge
    labels: several components and isolated vertices are the common case."""
    size = draw(st.integers(1, 8))
    vertex_labels = draw(st.lists(st.sampled_from("ABC"), min_size=size, max_size=size))
    edge_labels = "-=~"[: draw(st.integers(1, 3))]
    pairs = draw(
        st.sets(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)), max_size=12)
    )
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    return LabeledGraph.from_vertices_and_edges(
        enumerate(vertex_labels),
        [(u, v, draw(st.sampled_from(edge_labels))) for u, v in edges],
    )


def _valid_random_batch(rng: random.Random, graph: LabeledGraph) -> GraphChangeOperation:
    while True:
        batch = _random_batch(rng, graph)
        try:
            apply_operation(graph.copy(), batch)
        except GraphError:
            continue
        return batch


@settings(max_examples=60, deadline=None)
@given(
    labelled_graphs(),
    st.sampled_from((1, 2, 3, 4)),
    st.sampled_from((PAPER_SCHEME, DimensionScheme(include_edge_label=True))),
    st.integers(0, 10_000),
)
def test_property_bulk_load_equals_edge_by_edge_growth(graph, depth, scheme, seed):
    """Def 3.1 over the finished graph and Procedure Insert-Edge over its
    edges in any order build the same index (the latter cannot hold an
    isolated vertex, whose bulk-built NPV is empty), and one batch
    applied to both delivers the same net deltas."""
    rng = random.Random(seed)
    bulk = NNTIndex(graph, depth, scheme)
    grown = NNTIndex(depth_limit=depth, scheme=scheme)
    edges = list(graph.edges())
    rng.shuffle(edges)
    for u, v, label in edges:
        grown.insert_edge(u, v, label, graph.vertex_label(u), graph.vertex_label(v))
    isolated = [vertex for vertex in graph.vertices() if not graph.degree(vertex)]

    assert bulk.graph == graph and set(bulk.npvs) == set(grown.npvs) | set(isolated)
    reference = project_graph(graph, depth, scheme)
    for vertex in isolated:
        assert bulk.npvs[vertex] == reference[vertex] == {}
    for vertex, npv in grown.npvs.items():
        assert bulk.npvs[vertex] == npv
    assert bulk.num_tree_nodes == grown.num_tree_nodes + len(isolated)
    assert bulk.stats == {**grown.stats, "edges_inserted": 0, "deltas_delivered": 0}
    bulk.check_integrity()
    grown.check_integrity()

    batch = _valid_random_batch(rng, bulk.graph)
    heard = []
    for index in (bulk, grown):
        heard.append(NetDeltaRecorder())
        index.add_listener(heard[-1])
        index.apply(batch)
        index.check_integrity()
    assert heard[0].batches == heard[1].batches
    assert all(bulk.npvs[vertex] == npv for vertex, npv in grown.npvs.items())
