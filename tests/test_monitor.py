"""End-to-end tests for the StreamMonitor public API."""

import random

import pytest

from repro import (
    EdgeChange,
    GraphChangeOperation,
    GraphError,
    LabeledGraph,
    StreamMonitor,
)
from repro.isomorphism import SubgraphMatcher
from repro.nnt.branches import enumerate_simple_paths
from repro.nnt.projection import PAPER_SCHEME, DimensionScheme

from .conftest import extract_connected_subgraph, random_labeled_graph


def chain(labels):
    graph = LabeledGraph()
    for index, label in enumerate(labels):
        graph.add_vertex(index, label)
    for index in range(len(labels) - 1):
        graph.add_edge(index, index + 1, "-")
    return graph


def make_monitor(method="dsc"):
    return StreamMonitor(
        {"ab": chain(["A", "B"]), "abc": chain(["A", "B", "C"])}, method=method
    )


class TestLifecycle:
    def test_add_remove_stream(self):
        monitor = make_monitor()
        monitor.add_stream("s")
        assert monitor.stream_ids() == ["s"]
        monitor.remove_stream("s")
        assert monitor.stream_ids() == []
        assert monitor.matches() == set()

    def test_duplicate_stream_rejected(self):
        monitor = make_monitor()
        monitor.add_stream("s")
        with pytest.raises(ValueError):
            monitor.add_stream("s")

    def test_add_stream_with_initial_graph(self):
        monitor = make_monitor()
        monitor.add_stream("s", chain(["A", "B", "C"]))
        assert monitor.matches() == {("s", "ab"), ("s", "abc")}

    def test_graph_accessor(self):
        monitor = make_monitor()
        monitor.add_stream("s", chain(["A", "B"]))
        assert monitor.graph("s").num_edges == 1


class TestUpdates:
    @pytest.mark.parametrize("method", ("nl", "dsc", "skyline", "matrix"))
    def test_single_change_and_batch(self, method):
        monitor = make_monitor(method)
        monitor.add_stream("s")
        monitor.apply("s", EdgeChange.insert(0, 1, "-", "A", "B"))
        assert monitor.matches() == {("s", "ab")}
        monitor.apply(
            "s", GraphChangeOperation([EdgeChange.insert(1, 2, "-", v_label="C")])
        )
        assert monitor.matches() == {("s", "ab"), ("s", "abc")}
        monitor.apply("s", EdgeChange.delete(0, 1))
        assert monitor.matches() == set()

    def test_apply_many(self):
        monitor = make_monitor()
        monitor.add_stream("x")
        monitor.add_stream("y")
        monitor.apply_many(
            {
                "x": GraphChangeOperation([EdgeChange.insert(0, 1, "-", "A", "B")]),
                "y": GraphChangeOperation([EdgeChange.insert(0, 1, "-", "B", "C")]),
            }
        )
        assert monitor.matches() == {("x", "ab")}

    def test_apply_many_accepts_single_edge_changes(self):
        """`apply_many` takes the same per-stream union `apply` does:
        whole batches and bare EdgeChange values can be mixed."""
        monitor = make_monitor()
        monitor.add_stream("x")
        monitor.add_stream("y")
        monitor.apply_many(
            {
                "x": EdgeChange.insert(0, 1, "-", "A", "B"),
                "y": GraphChangeOperation([EdgeChange.insert(0, 1, "-", "B", "C")]),
            }
        )
        assert monitor.matches() == {("x", "ab")}
        monitor.apply_many({"x": EdgeChange.delete(0, 1)})
        assert monitor.matches() == set()

    def test_stats_tree_nodes_o1_counter(self):
        """stats() must report the running per-stream tree-node counter,
        matching an explicit recount of the simple paths."""
        monitor = make_monitor()
        monitor.add_stream("s", chain(["A", "B", "C"]))
        monitor.apply("s", EdgeChange.insert(0, 2, "-"))
        stats = monitor.stats()
        index = monitor._indexes["s"]
        graph, depth = index.graph, index.depth_limit
        recount = sum(len(enumerate_simple_paths(graph, v, depth)) for v in graph.vertices())
        assert stats["streams"]["s"]["tree_nodes"] == recount > 0

    def test_is_match(self):
        monitor = make_monitor()
        monitor.add_stream("s", chain(["A", "B"]))
        assert monitor.is_match("s", "ab")
        assert not monitor.is_match("s", "abc")


#: name -> (valid batches applied first, the batch that must be refused).
POISON_BATCHES = {
    # The reproduction of ISSUE 19: the valid prefix insert(3,4) used to stay.
    "duplicate_insert_second": (
        [[EdgeChange.insert(1, 2, "-", "A", "B")]],
        [EdgeChange.insert(3, 4, "-", "B", "C"), EdgeChange.insert(1, 2, "-", "A", "B")],
    ),
    # delete(2,3) isolates vertex 3, which is dropped; then delete(5,6) is refused.
    "missing_delete_after_vertex_drop": (
        [[EdgeChange.insert(1, 2, "-", "A", "B"), EdgeChange.insert(2, 3, "-", None, "C")]],
        [EdgeChange.delete(2, 3), EdgeChange.delete(5, 6)],
    ),
    "unlabeled_endpoint_third": (
        [[EdgeChange.insert(1, 2, "-", "A", "B")]],
        [
            EdgeChange.insert(2, 3, "-", None, "C"),
            EdgeChange.insert(3, 4, "-", None, "A"),
            EdgeChange.insert(4, 9, "-"),
        ],
    ),
}


class TestAllOrNothingBatches:
    """A refused batch leaves the graph, the NNT, the NPVs and the join
    engine exactly as they were (Def 2.4: the batch is the unit)."""

    @pytest.mark.parametrize("poison", sorted(POISON_BATCHES))
    @pytest.mark.parametrize(
        "scheme",
        (PAPER_SCHEME, DimensionScheme(include_edge_label=True)),
        ids=("paper", "edge_label"),
    )
    @pytest.mark.parametrize("method", ("nl", "dsc", "skyline", "matrix"))
    def test_refused_batch_leaves_no_trace(self, method, scheme, poison):
        queries = {"ab": chain(["A", "B"]), "abc": chain(["A", "B", "C"])}
        monitor = StreamMonitor(queries, method=method, scheme=scheme)
        twin = StreamMonitor(queries, method=method, scheme=scheme)  # never poisoned
        for each in (monitor, twin):
            each.add_stream("s")
        valid, refused = POISON_BATCHES[poison]
        for batch in valid:
            for each in (monitor, twin):
                each.apply("s", GraphChangeOperation(batch))
        index = monitor._indexes["s"]
        graph = monitor.graph("s").copy()
        npvs = {vertex: dict(npv) for vertex, npv in index.npvs.items()}
        matches = monitor.matches()
        version = monitor.mutation_version("s")

        with pytest.raises(GraphError):
            monitor.apply("s", GraphChangeOperation(refused))

        assert monitor.graph("s") == graph
        assert index.npvs == npvs
        assert monitor.matches() == matches
        assert monitor.mutation_version("s") == version
        index.check_integrity()

        following = GraphChangeOperation(
            [EdgeChange.delete(1, 2), EdgeChange.insert(7, 8, "-", "B", "C")]
        )
        for each in (monitor, twin):
            each.apply("s", following)
        index.check_integrity()
        assert monitor.graph("s") == twin.graph("s")
        assert index.npvs == twin._indexes["s"].npvs
        assert monitor.matches() == twin.matches()


def count_calls(monkeypatch, owner, name: str) -> list[tuple]:
    """Record the arguments of every call to ``owner.name`` from now on."""
    calls: list[tuple] = []
    original = getattr(owner, name)

    def recording(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, recording)
    return calls


class TestOneMutationPerChange:
    """The batch is judged by a read-only check, then spliced once: no
    dry run, no undo."""

    def test_apply_writes_each_edge_once_and_checks_once(self, monkeypatch):
        import repro.nnt.incremental as incremental

        monitor = make_monitor()
        monitor.add_stream("s", chain(["A", "B", "C", "A"]))
        batch = GraphChangeOperation(
            [
                EdgeChange.delete(2, 3),  # isolates 3, which is dropped
                EdgeChange.insert(0, 2, "-"),
                EdgeChange.insert(1, 9, "-", None, "C"),
                EdgeChange.insert(3, 4, "-", "A", "B"),  # 3 is re-created
            ]
        )
        checks = count_calls(monkeypatch, incremental, "check_batch")
        added = count_calls(monkeypatch, LabeledGraph, "add_edge")
        removed = count_calls(monkeypatch, LabeledGraph, "remove_edge")
        monitor.apply("s", batch)
        assert (len(checks), len(added), len(removed)) == (1, 3, 1)
        monitor.apply("s", EdgeChange.delete(0, 2))
        assert (len(checks), len(added), len(removed)) == (2, 3, 2)


class TestVerification:
    def test_verified_subset_of_matches(self):
        monitor = make_monitor()
        monitor.add_stream("s", chain(["A", "B", "C"]))
        assert monitor.verified_matches() <= monitor.matches()

    def test_verified_specific_pairs(self):
        monitor = make_monitor()
        monitor.add_stream("s", chain(["A", "B"]))
        assert monitor.verified_matches({("s", "ab")}) == {("s", "ab")}
        assert monitor.verified_matches({("s", "abc")}) == set()

    @pytest.mark.parametrize("method", ("nl", "dsc", "skyline", "matrix"))
    def test_no_false_negatives_random(self, method):
        rng = random.Random(31337)
        for trial in range(5):
            target = random_labeled_graph(rng, rng.randint(5, 8), extra_edges=3)
            queries = {
                f"q{i}": extract_connected_subgraph(rng, target, rng.randint(2, 4))
                for i in range(3)
            }
            monitor = StreamMonitor(queries, method=method)
            monitor.add_stream(0, target)
            filtered = monitor.matches()
            truth = {
                (0, query_id)
                for query_id, query in queries.items()
                if SubgraphMatcher(target).is_subgraph(query)
            }
            assert truth <= filtered
            assert monitor.verified_matches() == truth


class TestMethodEquivalence:
    def test_methods_identical_over_stream(self):
        rng = random.Random(4000)
        queries = {
            f"q{i}": random_labeled_graph(rng, rng.randint(2, 4), extra_edges=1)
            for i in range(3)
        }
        monitors = {
            m: StreamMonitor(queries, method=m)
            for m in ("nl", "dsc", "skyline", "matrix")
        }
        for monitor in monitors.values():
            monitor.add_stream(0)
        timeline = []
        mirror = LabeledGraph()
        for _ in range(60):
            vertices = list(mirror.vertices())
            edges = list(mirror.edges())
            if edges and rng.random() < 0.4:
                u, v, _ = rng.choice(edges)
                timeline.append(EdgeChange.delete(u, v))
            else:
                new_id = max([v for v in vertices if isinstance(v, int)], default=-1) + 1
                if vertices and rng.random() < 0.6 and len(vertices) >= 2:
                    u, v = rng.sample(vertices, 2)
                    if mirror.has_edge(u, v):
                        continue
                    timeline.append(EdgeChange.insert(u, v, "-"))
                elif vertices:
                    timeline.append(
                        EdgeChange.insert(
                            rng.choice(vertices), new_id, "-", None, rng.choice("ABC")
                        )
                    )
                else:
                    timeline.append(EdgeChange.insert(0, 1, "-", "A", "B"))
            from repro.graph import apply_change

            apply_change(mirror, timeline[-1])
            results = set()
            for name, monitor in monitors.items():
                monitor.apply(0, timeline[-1])
                results.add(frozenset(monitor.matches()))
            assert len(results) == 1  # all engines agree at every step
