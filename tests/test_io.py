"""Round-trip tests for the text serialization of graphs and streams."""

import pytest
from hypothesis import given, settings

from repro.graph import EdgeChange, GraphChangeOperation, GraphError, GraphStream, LabeledGraph
from repro.graph.io import (
    graph_from_string,
    graph_to_string,
    read_graph_set,
    read_stream,
    write_graph_set,
    write_stream,
)

from .conftest import graph_strategy


def string_graph() -> LabeledGraph:
    """A graph whose ids/labels are strings (the io layer's native type)."""
    return LabeledGraph.from_vertices_and_edges(
        [("n1", "A"), ("n2", "B"), ("n3", "C")],
        [("n1", "n2", "x"), ("n2", "n3", "y")],
    )


class TestGraphRoundTrip:
    def test_string_round_trip(self):
        graph = string_graph()
        assert graph_from_string(graph_to_string(graph)) == graph

    def test_empty_graph_round_trip(self):
        assert graph_from_string(graph_to_string(LabeledGraph())) == LabeledGraph()

    def test_file_round_trip(self, tmp_path):
        graphs = [string_graph(), LabeledGraph()]
        path = tmp_path / "set.txt"
        write_graph_set(graphs, path, names=["first", "second"])
        loaded = read_graph_set(path)
        assert [name for name, _ in loaded] == ["first", "second"]
        assert loaded[0][1] == graphs[0]
        assert loaded[1][1] == graphs[1]

    def test_whitespace_token_rejected(self):
        graph = LabeledGraph()
        graph.add_vertex("a b", "L")
        with pytest.raises(GraphError):
            graph_to_string(graph)

    def test_malformed_header_rejected(self):
        with pytest.raises(GraphError):
            graph_from_string("t missing-hash g\nv 1 A\n")

    def test_data_before_header_rejected(self):
        with pytest.raises(GraphError):
            graph_from_string("v 1 A\n")

    def test_unknown_record_rejected(self):
        with pytest.raises(GraphError):
            graph_from_string("t # g\nz 1 2\n")

    def test_names_length_mismatch(self, tmp_path):
        with pytest.raises(GraphError):
            write_graph_set([string_graph()], tmp_path / "x.txt", names=["a", "b"])

    def test_duplicate_block_name_rejected_on_read(self, tmp_path):
        # Callers key graphs by block name: a repeat would silently keep
        # only the last block under it.
        path = tmp_path / "dup.txt"
        path.write_text("t # q\nv 0 A\nv 1 B\ne 0 1 -\nt # q\nv 0 C\nv 1 D\ne 0 1 -\n")
        with pytest.raises(GraphError, match="duplicate graph block name 'q'"):
            read_graph_set(path)

    def test_duplicate_block_name_rejected_on_write(self, tmp_path):
        path = tmp_path / "dup.txt"
        with pytest.raises(GraphError, match="duplicate graph block name 'q'"):
            write_graph_set([string_graph(), LabeledGraph()], path, names=["q", "q"])
        assert not path.exists()


class TestStreamRoundTrip:
    def test_round_trip(self, tmp_path):
        initial = string_graph()
        stream = GraphStream(
            initial,
            [
                GraphChangeOperation(
                    [EdgeChange.insert("n3", "n4", "x", v_label="D")]
                ),
                GraphChangeOperation([EdgeChange.delete("n1", "n2")]),
                GraphChangeOperation([]),
            ],
            name="mystream",
        )
        path = tmp_path / "stream.txt"
        write_stream(stream, path)
        loaded = read_stream(path)
        assert loaded.name == "mystream"
        assert loaded.initial == stream.initial
        assert len(loaded) == len(stream)
        # Replaying both must produce identical graphs at each timestamp.
        for t in range(len(stream)):
            assert loaded.graph_at(t) == stream.graph_at(t)

    def test_stream_without_ops(self, tmp_path):
        stream = GraphStream(string_graph(), [], name="still")
        path = tmp_path / "still.txt"
        write_stream(stream, path)
        loaded = read_stream(path)
        assert len(loaded) == 1
        assert loaded.initial == stream.initial

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("op\nins 1 2 x\n")
        with pytest.raises(GraphError):
            read_stream(path)

    def test_change_before_op_rejected(self, tmp_path):
        path = tmp_path / "bad2.txt"
        path.write_text("t # s\nv 1 A\nins 1 2 x\n")
        with pytest.raises(GraphError):
            read_stream(path)


@settings(max_examples=30, deadline=None)
@given(graph_strategy())
def test_any_small_graph_round_trips(graph):
    # io stringifies ids/labels; compare against the stringified graph.
    as_strings = LabeledGraph()
    for vertex, label in graph.vertex_items():
        as_strings.add_vertex(str(vertex), str(label))
    for u, v, label in graph.edges():
        as_strings.add_edge(str(u), str(v), str(label))
    assert graph_from_string(graph_to_string(graph)) == as_strings
