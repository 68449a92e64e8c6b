"""The batched/coalesced NPV delta pipeline must be invisible to the
join engines' answers.

Two delivery paths feed the same operation stream to every engine:

* **per_timestamp** — ``NNTIndex.apply``: one ``on_batch_update`` per
  timestamp batch with cancelling deltas netted out across its changes;
* **per_change** — ``NNTIndex.apply_change`` for each change in turn:
  one coalescing scope (and one ``on_batch_update``) per edge change.

Both must produce candidate sets identical to each other, to the
brute-force dominance oracle, and (completeness, Lemma 4.2) must never
miss a VF2-confirmed pair.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import EdgeChange, GraphChangeOperation
from repro.isomorphism.vf2 import SubgraphMatcher
from repro.join import ENGINES, QuerySet, StreamListenerAdapter, make_engine
from repro.nnt import NNTIndex
from repro.nnt.branches import enumerate_simple_paths

from .conftest import random_labeled_graph
from .test_join_engines import oracle, small_queries


def temporal_locality_batch(rng: random.Random, index: NNTIndex) -> GraphChangeOperation:
    """One timestamp batch biased toward delete/re-insert churn (the
    reality-like pattern where most deltas cancel within the batch)."""
    graph = index.graph
    edges = list(graph.edges())
    changes = []
    deleted = []
    rng.shuffle(edges)
    for u, v, label in edges[: rng.randint(0, max(1, len(edges) // 2))]:
        changes.append(EdgeChange.delete(u, v))
        deleted.append((u, v, label))
    # Re-insert a random subset of what this same batch deletes: their
    # tree-edge deltas cancel exactly and must be coalesced away.
    for u, v, label in deleted:
        if rng.random() < 0.6:
            changes.append(
                EdgeChange.insert(
                    u, v, label, graph.vertex_label(u), graph.vertex_label(v)
                )
            )
    vertices = list(graph.vertices())
    if len(vertices) >= 2 and rng.random() < 0.7:
        u, v = rng.sample(vertices, 2)
        if not graph.has_edge(u, v) and not any(
            c.op == "ins" and {c.u, c.v} == {u, v} for c in changes
        ):
            # Labels supplied: the batch's deletions may have dropped an
            # endpoint (isolated vertices vanish), making this a re-creation.
            changes.append(
                EdgeChange.insert(
                    u, v, rng.choice("xy"), graph.vertex_label(u), graph.vertex_label(v)
                )
            )
    if rng.random() < 0.3:
        new_id = 100 + rng.randint(0, 20)
        if not graph.has_vertex(new_id) and vertices:
            anchor = rng.choice(vertices)
            changes.append(
                EdgeChange.insert(
                    anchor, new_id, "x", graph.vertex_label(anchor), rng.choice("ABC")
                )
            )
    return GraphChangeOperation(changes)


def apply_per_change(index: NNTIndex, batch: GraphChangeOperation) -> None:
    """The batch's changes in ``apply`` order, each in its own scope."""
    for change in batch.sequentialized():
        index.apply_change(change)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(0, 100_000), min_size=2, max_size=12))
def test_property_delivery_paths_agree(seeds):
    rng = random.Random(77)
    query_set = QuerySet(small_queries(rng, count=3), depth_limit=2)
    base = random_labeled_graph(rng, 6, extra_edges=3)

    paths = {
        "per_timestamp": NNTIndex(base, depth_limit=2),
        "per_change": NNTIndex(base, depth_limit=2),
    }
    engines = {
        path: {name: make_engine(name, query_set) for name in ENGINES}
        for path in paths
    }
    for path, index in paths.items():
        for engine in engines[path].values():
            engine.register_stream(0, index.npvs)
            index.add_listener(StreamListenerAdapter(engine, 0))

    for seed in seeds:
        batches = {
            path: temporal_locality_batch(random.Random(seed), index)
            for path, index in paths.items()
        }
        # Identical graphs produce identical batches; apply each path's own.
        assert len({b.changes for b in batches.values()}) == 1
        paths["per_timestamp"].apply(batches["per_timestamp"])
        apply_per_change(paths["per_change"], batches["per_change"])

    reference_index = paths["per_timestamp"]
    reference_index.check_integrity()
    expected = oracle({0: reference_index}, query_set)
    for path, path_engines in engines.items():
        for name, engine in path_engines.items():
            assert engine.candidates() == expected, (path, name)
    # Completeness against exact isomorphism: every VF2-confirmed pair
    # must survive the filter in every engine under every delivery path.
    matcher = SubgraphMatcher(reference_index.graph)
    for query_id, query in query_set.queries.items():
        if matcher.is_subgraph(query):
            assert (0, query_id) in expected


def test_coalescing_cancels_delete_reinsert_batches():
    """A batch that deletes and re-inserts the same edges must deliver
    zero deltas when the whole batch shares one coalescing scope (and
    plenty when every change flushes its own).

    The stream graph is a clique so no deletion isolates a vertex —
    vertex removal purges its queued deltas, which would legitimately
    leave the re-creation deltas unmatched."""
    from repro.graph import LabeledGraph

    base = LabeledGraph.from_vertices_and_edges(
        [(i, "ABC"[i % 3]) for i in range(5)],
        [(i, j, "x") for i in range(5) for j in range(i + 1, 5)],
    )
    per_timestamp = NNTIndex(base, depth_limit=3)
    per_change = NNTIndex(base, depth_limit=3)
    edges = list(base.edges())[:3]
    batch = GraphChangeOperation(
        [EdgeChange.delete(u, v) for u, v, _ in edges]
        + [
            EdgeChange.insert(u, v, label, base.vertex_label(u), base.vertex_label(v))
            for u, v, label in edges
        ]
    )
    per_timestamp.apply(batch)
    apply_per_change(per_change, batch)
    for index in (per_timestamp, per_change):
        index.check_integrity()
    assert per_timestamp.npvs == per_change.npvs
    assert per_timestamp.stats["deltas_delivered"] == 0
    assert per_change.stats["deltas_delivered"] > 0


@settings(max_examples=10, deadline=None)
@given(st.lists(st.integers(0, 100_000), min_size=1, max_size=10))
def test_property_matrix_never_drops_vf2_pair(seeds):
    """Soundness of the dense engine: a VF2-confirmed (stream, query)
    pair is always in the matrix engine's candidate set."""
    rng = random.Random(31)
    queries = small_queries(rng, count=4)
    query_set = QuerySet(queries, depth_limit=3)
    engine = make_engine("matrix", query_set)
    index = NNTIndex(random_labeled_graph(rng, 7, extra_edges=3), depth_limit=3)
    engine.register_stream("s", index.npvs)
    index.add_listener(StreamListenerAdapter(engine, "s"))
    for seed in seeds:
        index.apply(temporal_locality_batch(random.Random(seed), index))
        matcher = SubgraphMatcher(index.graph)
        for query_id, query in queries.items():
            if matcher.is_subgraph(query):
                assert engine.is_candidate("s", query_id), query_id


def test_running_tree_node_counter_matches_recount():
    """`num_tree_nodes` (the O(1) stats counter) must track the logical
    tree size — the simple paths of the live graph — exactly through
    arbitrary churn."""
    rng = random.Random(13)
    index = NNTIndex(random_labeled_graph(rng, 5, extra_edges=2), depth_limit=3)
    for seed in range(25):
        index.apply(temporal_locality_batch(random.Random(seed), index))
        graph = index.graph
        recount = sum(len(enumerate_simple_paths(graph, v, 3)) for v in graph.vertices())
        assert index.num_tree_nodes == recount
    index.check_integrity()
