"""Property test: ``save_monitor``/``restore_monitor`` round-trips a
monitor that answers identically at every timestamp — including graphs
with int vertex ids, which the text format serializes as strings and
the manifest's id-kind record must restore exactly."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EdgeChange, LabeledGraph, StreamMonitor
from repro.core.checkpoint import load_monitor, save_monitor
from repro.datasets.stream_gen import synthesize_stream

from .conftest import random_labeled_graph


def _scenario(seed: int, timestamps: int = 4):
    """A deterministic monitor + valid update schedule from one seed.

    Vertex ids are ints on purpose: they exercise the manifest's
    id-kind round-trip (a naive restore would turn them into strings
    and silently change every NPV)."""
    rng = random.Random(seed)
    queries = {
        f"q{i}": random_labeled_graph(rng, rng.randint(2, 4), extra_edges=1)
        for i in range(rng.randint(1, 3))
    }
    streams = {}
    for i in range(rng.randint(1, 3)):
        base = random_labeled_graph(rng, rng.randint(3, 6), extra_edges=1)
        streams[f"s{i}"] = synthesize_stream(
            base, 0.3, 0.2, timestamps, rng, all_pairs=True, name=f"s{i}"
        )
    return queries, streams


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_round_trip_answers_identically_at_every_timestamp(seed, tmp_path_factory):
    queries, streams = _scenario(seed)
    monitor = StreamMonitor(queries, method="dsc")
    for stream_id, stream in streams.items():
        monitor.add_stream(stream_id, stream.initial)

    horizon = min(len(stream.operations) for stream in streams.values())
    for t in range(horizon + 1):
        directory = tmp_path_factory.mktemp("ckpt") / f"t{t}"
        save_monitor(monitor, directory)
        restored = load_monitor(directory)
        assert restored.matches() == monitor.matches(), f"diverged at t={t}"
        if t == horizon:
            break
        # Advance BOTH monitors one timestamp: the restored one must not
        # only answer like the original now, but keep doing so under
        # further updates (engine state re-derivation is exact).
        for stream_id, stream in streams.items():
            monitor.apply(stream_id, stream.operations[t])
            restored.apply(stream_id, stream.operations[t])
        assert restored.matches() == monitor.matches(), f"diverged after t={t + 1}"


class TestIntIdRoundTrip:
    def _int_monitor(self):
        query = LabeledGraph.from_vertices_and_edges(
            [(0, "A"), (1, "B")], [(0, 1, "-")]
        )
        stream_graph = LabeledGraph.from_vertices_and_edges(
            [(10, "A"), (11, "B"), (12, "C")], [(10, 11, "-"), (11, 12, "-")]
        )
        monitor = StreamMonitor({7: query}, method="dsc")
        monitor.add_stream(3, stream_graph)
        return monitor

    def test_vertex_ids_restore_as_ints(self, tmp_path):
        monitor = self._int_monitor()
        save_monitor(monitor, tmp_path / "ckpt")
        restored = load_monitor(tmp_path / "ckpt")
        assert set(restored.graph(3).vertices()) == {10, 11, 12}
        assert all(isinstance(v, int) for v in restored.graph(3).vertices())

    def test_manifest_records_id_kinds(self, tmp_path):
        monitor = self._int_monitor()
        save_monitor(monitor, tmp_path / "ckpt")
        manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
        assert manifest["format"] == 1
        assert manifest["query_id_kinds"] == ["int"]
        assert manifest["stream_id_kinds"] == ["int"]

    def test_restored_monitor_extends_int_id_graphs(self, tmp_path):
        """An update addressing an existing int vertex must extend the
        restored graph, not silently create a parallel string vertex."""
        monitor = self._int_monitor()
        save_monitor(monitor, tmp_path / "ckpt")
        restored = load_monitor(tmp_path / "ckpt")
        update = EdgeChange.insert(12, 13, "-", None, "A")
        monitor.apply(3, update)
        restored.apply(3, update)
        assert restored.matches() == monitor.matches()
        assert restored.graph(3).num_vertices == monitor.graph(3).num_vertices == 4

    def test_string_ids_stay_strings(self, tmp_path):
        query = LabeledGraph.from_vertices_and_edges(
            [("a", "A"), ("b", "B")], [("a", "b", "-")]
        )
        monitor = StreamMonitor({"q": query}, method="dsc")
        monitor.add_stream("s", query.copy())
        save_monitor(monitor, tmp_path / "ckpt")
        restored = load_monitor(tmp_path / "ckpt")
        assert set(restored.graph("s").vertices()) == {"a", "b"}

    def test_mixed_ids_restore_exactly(self, tmp_path):
        """A graph mixing int and str ids records its int ids, so the
        restore is exact and an update addressing ``1`` applies to both
        twins alike."""
        graph = LabeledGraph.from_vertices_and_edges(
            [(1, "A"), ("x", "B"), ("y", "A")], [(1, "x", "-"), ("x", "y", "-")]
        )
        monitor = StreamMonitor(
            {"q": graph.copy()}, method="dsc", checkpoint_dir=tmp_path / "ckpt"
        )
        monitor.add_stream("s", graph)
        monitor.checkpoint()
        manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
        assert manifest["stream_id_kinds"] == [[1]]
        restored = load_monitor(tmp_path / "ckpt")
        assert restored.graph("s") == monitor.graph("s")
        # The delete isolates 1, which is dropped; the insert brings it back.
        for update in (EdgeChange.delete(1, "x"), EdgeChange.insert(1, "y", "-", "A")):
            monitor.apply("s", update)
            restored.apply("s", update)
            assert restored.graph("s") == monitor.graph("s")
            assert restored.matches() == monitor.matches()


class TestUnrepresentableGraphsAreRefused:
    """What the text format cannot carry is refused before any file is
    written, naming the graph and the vertex."""

    def _refused(self, tmp_path, graph, match):
        directory = tmp_path / "ckpt"
        monitor = StreamMonitor({}, method="dsc", checkpoint_dir=directory)
        monitor.add_stream("s", graph)
        with pytest.raises(ValueError, match=match):
            monitor.checkpoint()
        assert not directory.exists() or not any(directory.iterdir())

    def test_two_ids_with_the_same_text(self, tmp_path):
        graph = LabeledGraph.from_vertices_and_edges(
            [(1, "A"), ("1", "B")], [(1, "1", "-")]
        )
        self._refused(tmp_path, graph, r"stream 's': vertex .* same text")

    def test_an_int_vertex_label(self, tmp_path):
        graph = LabeledGraph.from_vertices_and_edges(
            [("a", 1), ("b", "B")], [("a", "b", "-")]
        )
        self._refused(tmp_path, graph, r"stream 's': vertex 'a' has label 1")

    def test_an_int_edge_label(self, tmp_path):
        graph = LabeledGraph.from_vertices_and_edges(
            [("a", "A"), ("b", "B")], [("a", "b", 7)]
        )
        self._refused(tmp_path, graph, r"stream 's': edge .* label 7")

    def test_an_id_that_is_neither_str_nor_int(self, tmp_path):
        graph = LabeledGraph.from_vertices_and_edges(
            [(1.5, "A"), ("b", "B")], [(1.5, "b", "-")]
        )
        self._refused(tmp_path, graph, r"vertex 1\.5 is neither")

    @pytest.mark.parametrize(
        "vertices, edge_label, match",
        [
            ([("a", "A B"), ("b", "B")], "-", r"vertex 'a' has label 'A B'"),
            ([("a", "A"), ("b", "B")], "", r"edge .* has label ''"),
            ([("a b", "A"), ("b", "B")], "-", r"vertex 'a b' is not a token"),
        ],
        ids=["spaced-label", "empty-edge-label", "spaced-id"],
    )
    def test_text_that_is_not_one_token(self, tmp_path, vertices, edge_label, match):
        (u, _), (v, _) = vertices
        graph = LabeledGraph.from_vertices_and_edges(vertices, [(u, v, edge_label)])
        self._refused(tmp_path, graph, match)

    def test_a_refused_export_keeps_the_previous_one(self, tmp_path):
        directory = tmp_path / "ckpt"
        graph = LabeledGraph.from_vertices_and_edges(
            [("a", "A"), ("b", "B")], [("a", "b", "-")]
        )
        monitor = StreamMonitor({}, method="dsc", checkpoint_dir=directory)
        monitor.add_stream("s", graph)
        monitor.checkpoint()
        before = {p.name: p.read_bytes() for p in directory.iterdir()}
        monitor.apply("s", EdgeChange.insert("b", "c", "-", v_label=3))
        with pytest.raises(ValueError, match="vertex 'c' has label 3"):
            monitor.checkpoint()
        assert {p.name: p.read_bytes() for p in directory.iterdir()} == before
