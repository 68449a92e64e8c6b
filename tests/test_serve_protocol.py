"""The serving wire protocol: text/JSON parsing, malformed input as
:class:`ProtocolError` (never a raw ``IndexError``), the DLQ change
format round-trip, and the typed event/reply serializers that replaced
the old ``json.dumps(..., default=str)`` catch-all."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import load_monitor
from repro.core.monitor import MatchEvent, StreamMonitor
from repro.graph import LabeledGraph
from repro.graph.operations import DELETE, INSERT, EdgeChange
from repro.serve.protocol import (
    AddStream,
    BatchEdit,
    Checkpoint,
    Commit,
    Edit,
    Matches,
    Poll,
    ProtocolError,
    Quit,
    Stats,
    change_from_dict,
    change_to_dict,
    encode_reply,
    event_to_dict,
    parse_json_line,
    parse_text_line,
    to_jsonable,
)
from repro.runtime import ShardedMonitor
from repro.serve.session import MonitorBridge, Session


class TestParseTextLine:
    def test_blank_and_comment_lines_are_skipped(self):
        assert parse_text_line("") is None
        assert parse_text_line("   \t ") is None
        assert parse_text_line("# a comment") is None

    def test_stream_with_and_without_graph_file(self):
        cmd = parse_text_line("stream s1")
        assert cmd == AddStream("s1", None, None, verb="stream")
        cmd = parse_text_line("stream s1 graphs.txt g0")
        assert cmd == AddStream("s1", "graphs.txt", "g0", verb="stream")

    def test_ins_with_full_and_partial_labels(self):
        cmd = parse_text_line("ins s1 1 2 x A B")
        assert isinstance(cmd, Edit)
        assert cmd.stream_id == "s1"
        assert cmd.change == EdgeChange.insert("1", "2", "x", "A", "B")
        bare = parse_text_line("ins s1 1 2")
        assert bare.change.edge_label == "-"
        assert bare.change.u_label is None

    def test_del_parses(self):
        cmd = parse_text_line("del s1 1 2")
        assert isinstance(cmd, Edit)
        assert cmd.change.op == DELETE

    def test_verbs_and_aliases(self):
        assert isinstance(parse_text_line("tick"), Commit)
        assert isinstance(parse_text_line("commit"), Commit)
        assert isinstance(parse_text_line("poll"), Poll)
        assert isinstance(parse_text_line("events"), Poll)
        assert isinstance(parse_text_line("matches"), Matches)
        assert isinstance(parse_text_line("stats"), Stats)
        assert isinstance(parse_text_line("checkpoint"), Checkpoint)
        assert isinstance(parse_text_line("quit"), Quit)

    def test_verb_is_echoed_as_spelled(self):
        assert parse_text_line("tick").verb == "tick"
        assert parse_text_line("commit").verb == "commit"

    @pytest.mark.parametrize(
        "line",
        [
            "frobnicate",
            "stream",
            "stream a b c d",
            "ins s1",
            "ins s1 u",  # the historical IndexError case
            "ins s1 1 2 x A B extra",
            "del s1 1",
            "del s1 1 2 extra",
            "tick now",
            "matches please",
        ],
    )
    def test_malformed_lines_raise_protocol_error(self, line):
        with pytest.raises(ProtocolError):
            parse_text_line(line)

    def test_malformed_never_escapes_as_index_error(self):
        try:
            parse_text_line("ins s1 u")
        except ProtocolError as exc:
            assert "ins" in str(exc)
        else:  # pragma: no cover - the parse must raise
            pytest.fail("expected ProtocolError")

    def test_self_loop_is_a_protocol_error(self):
        with pytest.raises(ProtocolError):
            parse_text_line("ins s1 3 3")


class TestParseJsonLine:
    def test_blank_line_is_skipped(self):
        assert parse_json_line("") is None
        assert parse_json_line("  \n") is None

    def test_ins_preserves_integer_ids(self):
        cmd = parse_json_line(
            json.dumps(
                {
                    "cmd": "ins",
                    "stream": 7,
                    "u": 1,
                    "v": 2,
                    "edge_label": "x",
                    "u_label": "A",
                    "v_label": "B",
                }
            )
        )
        assert isinstance(cmd, Edit)
        assert cmd.stream_id == 7
        assert cmd.change.u == 1 and cmd.change.v == 2

    def test_batch_parses_many_changes(self):
        cmd = parse_json_line(
            json.dumps(
                {
                    "cmd": "batch",
                    "stream": "s",
                    "changes": [
                        {"op": "ins", "u": 1, "v": 2, "edge_label": "x"},
                        {"op": "del", "u": 3, "v": 4},
                    ],
                }
            )
        )
        assert isinstance(cmd, BatchEdit)
        assert len(cmd.changes) == 2
        assert cmd.changes[0].op == INSERT
        assert cmd.changes[1].op == DELETE

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            "[1, 2]",
            '{"no_cmd": true}',
            '{"cmd": 7}',
            '{"cmd": "warp"}',
            '{"cmd": "ins"}',  # missing stream
            '{"cmd": "ins", "stream": "s"}',  # missing u/v
            '{"cmd": "batch", "stream": "s"}',  # missing changes
            '{"cmd": "batch", "stream": "s", "changes": "nope"}',
            '{"cmd": "ins", "stream": "s", "u": 1, "v": 1}',  # self loop
            '{"cmd": "addq", "query": "q", "vertices": [[0]]}',  # no label
            '{"cmd": "addq", "query": "q", "vertices": ["AB"]}',  # not a list
            '{"cmd": "addq", "query": "q", "vertices": [[0, "A"]], "edges": [[0, 1]]}',
        ],
    )
    def test_malformed_json_commands_raise(self, line):
        with pytest.raises(ProtocolError):
            parse_json_line(line)

    @pytest.mark.parametrize(
        "doc",
        [
            {"cmd": "ins", "stream": "s", "u": [1], "v": 2},
            {"cmd": "ins", "stream": "s", "u": 1, "v": {"a": 2}},
            {"cmd": "del", "stream": "s", "u": True, "v": 2},
            {"cmd": "del", "stream": "s", "u": 1.5, "v": 2},
            {"cmd": "ins", "stream": [1], "u": 1, "v": 2},
            {"cmd": "batch", "stream": None, "changes": []},
            {"cmd": "batch", "stream": "s", "changes": [{"op": "del", "u": [1], "v": 2}]},
            {"cmd": "stream", "stream": [1]},
            {"cmd": "stream", "stream": False},
            {"cmd": "addq", "query": [1], "vertices": [[0, "A"]]},
            {"cmd": "delq", "query": [1]},
            {"cmd": "delq", "query": {"q": 1}},
            {"cmd": "addq", "query": "q", "vertices": [[1.5, "A"], [2, "B"]],
             "edges": [[1.5, 2, "x"]]},
            {"cmd": "addq", "query": "q", "vertices": [[[0], "A"]]},
            {"cmd": "addq", "query": "q", "vertices": [[0, "A"], [1, "B"]],
             "edges": [[0, True, "x"]]},
        ],
    )
    def test_ids_that_are_not_str_or_int_are_refused(self, doc):
        """A list id parses fine as JSON and cannot be hashed: it must be
        a ``bad_request`` here, not a ``TypeError`` out of the monitor."""
        with pytest.raises(ProtocolError, match="must be a string or an integer"):
            parse_json_line(json.dumps(doc))

    @pytest.mark.parametrize(
        "labels",
        [
            {"edge_label": None},
            {"edge_label": 1},
            {"u_label": 1},
            {"v_label": ["B"]},
            {"u_label": {"x": 1}},
            # A 'cmd' of its own replaces the ins (its extra fields are ignored).
            {"cmd": "addq", "query": "q", "vertices": [[0, None]]},
            {"cmd": "addq", "query": "q", "vertices": [[0, {"a": 1}]]},
            {"cmd": "addq", "query": "q", "vertices": [[0, ["A"]]]},
            {"cmd": "addq", "query": "q", "vertices": [[0, "A"], [1, "B"]],
             "edges": [[0, 1, 7]]},
            # A file name, never an integer: that would be a descriptor.
            {"cmd": "stream", "stream": "x", "graph_file": 1},
            {"cmd": "addq", "query": "q", "graph_file": 3},
            {"cmd": "stream", "stream": "x", "graph_file": "f", "graph_key": [1]},
            {"cmd": "addq", "query": "q", "graph_file": "f", "graph_key": 2},
        ],
    )
    def test_labels_that_are_not_str_are_refused(self, labels):
        doc = {"cmd": "ins", "stream": "s", "u": 1, "v": 2, **labels}
        with pytest.raises(ProtocolError, match="must be a string"):
            parse_json_line(json.dumps(doc))

    @pytest.mark.parametrize(
        "fields",
        [
            {"u_label": ""},
            {"u": "a b"},
            {"v": ""},
            {"edge_label": " "},
            {"v_label": "B\tC"},
            {"cmd": "batch", "changes": [{"op": "del", "u": "a\nb", "v": 2}]},
            {"cmd": "addq", "query": "q", "vertices": [[0, "A"], ["x y", "B"]]},
            {"cmd": "addq", "query": "q", "vertices": [[0, ""]]},
            {"cmd": "addq", "query": "q", "vertices": [[0, "A"], [1, "B"]],
             "edges": [[0, 1, "a b"]]},
        ],
    )
    def test_ids_and_labels_no_checkpoint_can_write_are_refused(self, fields):
        """Applied, such an id or label would make every later checkpoint
        of the monitor raise (the graph files are whitespace tokens)."""
        doc = {"cmd": "ins", "stream": "s", "u": 1, "v": 2, **fields}
        with pytest.raises(ProtocolError, match="without whitespace"):
            parse_json_line(json.dumps(doc))

    def test_stream_query_ids_and_file_names_may_hold_spaces(self):
        assert parse_json_line('{"cmd": "stream", "stream": "a b"}').stream_id == "a b"
        doc = {"cmd": "addq", "query": "q 1", "graph_file": "my set.txt", "graph_key": "g 0"}
        assert parse_json_line(json.dumps(doc)).graph_key == "g 0"

    def test_vertex_labels_may_be_null_or_absent(self):
        doc = {"cmd": "ins", "stream": "s", "u": 1, "v": 2, "u_label": None}
        cmd = parse_json_line(json.dumps(doc))
        assert cmd.change == EdgeChange.insert(1, 2, "-", None, None)


class TestChangeDictRoundTrip:
    def test_insert_round_trips(self):
        change = EdgeChange.insert(1, 2, "x", "A", "B")
        assert change_from_dict(change_to_dict(change)) == change

    def test_delete_round_trips(self):
        change = EdgeChange.delete("a", "b")
        assert change_from_dict(change_to_dict(change)) == change

    def test_delete_dict_omits_labels(self):
        doc = change_to_dict(EdgeChange.delete(1, 2))
        assert set(doc) == {"op", "u", "v"}

    @pytest.mark.parametrize(
        "doc",
        [
            "not a mapping",
            {"op": "upsert", "u": 1, "v": 2},
            {"op": "ins", "u": 1},
            {"op": "ins", "u": 1, "v": 1},
        ],
    )
    def test_bad_change_dicts_raise(self, doc):
        with pytest.raises(ProtocolError):
            change_from_dict(doc)


class TestTypedSerialization:
    """Regression for the ``emit(..., default=str)`` catch-all: events
    and replies must keep int ids and timestamps typed."""

    def test_event_keeps_integer_ids_typed(self):
        event = MatchEvent(kind="appeared", stream_id=7, query_id="q0")
        doc = event_to_dict(event, 42)
        assert doc == {"kind": "appeared", "stream": 7, "query": "q0", "t": 42}
        decoded = json.loads(json.dumps(doc))
        assert decoded["stream"] == 7 and not isinstance(decoded["stream"], str)
        assert decoded["t"] == 42 and not isinstance(decoded["t"], str)

    def test_exotic_ids_fall_back_to_str_explicitly(self):
        event = MatchEvent(kind="vanished", stream_id=("s", 1), query_id="q")
        doc = event_to_dict(event, 1)
        assert doc["stream"] == str(("s", 1))

    def test_to_jsonable_passes_native_scalars_through(self):
        value = {"t": 3, "ratio": 0.5, "ok": True, "name": "x", "none": None}
        assert to_jsonable(value) == value

    def test_to_jsonable_stringifies_only_exotic_leaves(self):
        doc = to_jsonable({"path": Path("/tmp/x"), "ids": [1, 2], "keys": {3: "v"}})
        assert doc == {"path": "/tmp/x", "ids": [1, 2], "keys": {"3": "v"}}

    def test_to_jsonable_sorts_sets_deterministically(self):
        assert to_jsonable({"s": {3, 1, 2}}) == {"s": [1, 2, 3]}

    def test_encode_reply_round_trips_typed(self):
        reply = {"ok": True, "t": 9, "events": [{"stream": 4, "t": 9}]}
        decoded = json.loads(encode_reply(reply))
        assert decoded["t"] == 9
        assert decoded["events"][0]["stream"] == 4


# -- generated documents, end to end ------------------------------------------

#: Every JSON scalar type, plus strings a checkpoint cannot write as a token.
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-1, 3),
    st.sampled_from([0.5, 2.0]),
    st.sampled_from(["a", "b", "1", "A", "B", "x", "", "a b"]),
)
IDS = st.one_of(st.just("s"), st.just(1), SCALARS)


def _optional(**fields):
    """A dict strategy whose keys may each be absent."""
    return st.fixed_dictionaries({}, optional=fields)


def _items(arity: int):
    """Inline pattern items: mostly of the right arity, sometimes not."""
    return st.one_of(
        st.lists(SCALARS, min_size=arity, max_size=arity),
        st.lists(SCALARS, max_size=arity + 1),
    )


@st.composite
def documents(draw, graph_files):
    """One ``stream``/``addq``/``ins``/``batch``/``commit`` document."""
    verb = draw(st.sampled_from(["stream", "addq", "ins", "batch", "commit"]))
    if verb == "commit":
        return {"cmd": verb}
    if verb in ("stream", "addq"):
        key = "stream" if verb == "stream" else "query"
        doc = {"cmd": verb, key: draw(IDS)}
        doc.update(draw(_optional(graph_file=st.sampled_from(graph_files),
                                  graph_key=st.one_of(st.just("g0"), SCALARS))))
        if verb == "addq" and "graph_file" not in doc:
            doc["vertices"] = draw(st.lists(_items(2), max_size=3))
            doc["edges"] = draw(st.lists(_items(3), max_size=2))
        return doc
    change = _optional(edge_label=SCALARS, u_label=SCALARS, v_label=SCALARS)
    endpoints = st.fixed_dictionaries({"u": SCALARS, "v": SCALARS})
    if verb == "ins":
        return {"cmd": verb, "stream": draw(IDS), **draw(endpoints), **draw(change)}
    changes = st.lists(
        st.tuples(st.sampled_from(["ins", "del"]), endpoints, change).map(
            lambda parts: {"op": parts[0], **parts[1], **parts[2]}
        ),
        max_size=3,
    )
    return {"cmd": verb, "stream": draw(IDS), "changes": draw(changes)}


def _text_format_carries(graph) -> bool:
    """What a checkpoint's graph text format can write (anything else it
    refuses by design): one token per id and label, one id per text."""
    texts = [str(vertex) for vertex in graph.vertices()]
    tokens = texts + [label for _, label in graph.vertex_items()]
    tokens += [label for _, _, label in graph.edges()]
    return len(set(texts)) == len(texts) and all(
        text and not any(ch.isspace() for ch in text) for text in tokens
    )


class TestGeneratedDocuments:
    """Whatever the client sends, a line is a ``ProtocolError`` or a reply,
    and the monitor it leaves behind checkpoints and restores."""

    @pytest.fixture(scope="class")
    def graph_files(self, tmp_path_factory):
        real = tmp_path_factory.mktemp("sets") / "set.txt"
        real.write_text("t # g0\nv 0 A\nv 1 B\ne 0 1 x\n")
        return [str(real), str(real.parent / "missing.txt")]

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_every_line_is_refused_or_answered_and_checkpoints(self, graph_files, data):
        program = data.draw(st.lists(documents(graph_files), min_size=1, max_size=6))
        pattern = LabeledGraph.from_vertices_and_edges([(0, "A"), (1, "B")], [(0, 1, "x")])
        with tempfile.TemporaryDirectory() as directory:
            monitor = StreamMonitor({"q": pattern}, checkpoint_dir=directory)
            bridge, session = MonitorBridge(monitor), Session(0)
            for doc in program:
                try:
                    reply = bridge.execute(session, parse_json_line(json.dumps(doc)))
                except ProtocolError:
                    continue
                assert isinstance(reply, dict) and reply["cmd"] == doc["cmd"]
                graphs = [*monitor.query_set.queries.values()]
                graphs += [monitor.graph(sid) for sid in monitor.stream_ids()]
                assert all(map(_text_format_carries, graphs)), graphs
                exported = bridge.checkpoint()
                assert exported["ok"], exported
                assert load_monitor(directory).matches() == monitor.matches()


class TestCadenceCheckpointAfterCommit:
    """A ``checkpoint_every`` export that fails after ``apply`` committed
    its batch is reported beside the applied batch, not as a refusal."""

    @pytest.mark.parametrize("workers", (0, 1))
    def test_a_failed_export_reports_the_batch_applied(self, tmp_path, workers):
        pattern = LabeledGraph.from_vertices_and_edges([(0, "A"), (1, "B")], [(0, 1, "x")])
        options = dict(checkpoint_dir=tmp_path / "ck", checkpoint_every=1)
        if workers:
            monitor = ShardedMonitor({"q": pattern}, num_workers=workers, **options)
        else:
            monitor = StreamMonitor({"q": pattern}, **options)
        with monitor:
            bridge, session = MonitorBridge(monitor), Session(0)
            for doc in (
                {"cmd": "stream", "stream": "s"},
                {"cmd": "ins", "stream": "s", "u": 1, "v": 2,
                 "edge_label": "x", "u_label": "A", "v_label": "B"},
            ):
                bridge.execute(session, parse_json_line(json.dumps(doc)))
            # Staged past the parser, which refuses a label with a space:
            # the monitor applies it, the text format cannot write it.
            bridge.execute(session, Edit("s", EdgeChange.insert(1, 3, "x", None, "B C")))
            reply = bridge.execute(session, parse_json_line('{"cmd": "commit"}'))
            assert reply["ok"] is True and reply["applied"] == 1, reply
            assert reply["checkpoint_error"].startswith("ValueError: ")
            assert "which is not a token str" in reply["checkpoint_error"]
            assert "errors" not in reply and bridge.refused == 0
            assert [e["kind"] for e in reply["events"]] == ["appeared"]
            assert monitor.graph("s").has_edge(1, 2) and monitor.graph("s").has_edge(1, 3)


class TestIdsWithOneTextAreRefused:
    """Vertex ids ``1`` and ``"1"`` write as the same checkpoint text: a
    batch or an inline pattern that would hold both is a counted poison
    refusal, so every later checkpoint still succeeds."""

    @pytest.mark.parametrize("workers", (0, 1))
    def test_a_batch_or_pattern_with_two_ids_of_one_text_is_refused(self, tmp_path, workers):
        pattern = LabeledGraph.from_vertices_and_edges([(0, "A"), (1, "B")], [(0, 1, "x")])
        options = dict(checkpoint_dir=tmp_path / "ck", checkpoint_every=1)
        if workers:
            monitor = ShardedMonitor({"q": pattern}, num_workers=workers, **options)
        else:
            monitor = StreamMonitor({"q": pattern}, **options)

        def ins(u, v) -> dict:
            return {"cmd": "ins", "stream": "s", "u": u, "v": v,
                    "edge_label": "x", "u_label": "A", "v_label": "B"}

        with monitor:
            bridge, session = MonitorBridge(monitor), Session(0)

            def run(doc: dict) -> dict:
                return bridge.execute(session, parse_json_line(json.dumps(doc)))

            commit = {"cmd": "commit"}
            assert run({"cmd": "stream", "stream": "s"})["ok"]
            run(ins(1, 2))
            assert "checkpoint_error" not in run(commit)
            for staged in ([ins("1", 3)], [ins(7, 8), ins(8, "7")]):
                for doc in staged:
                    run(doc)
                refused = run(commit)
                assert refused["ok"] is False and refused["applied"] == 0, refused
                assert "write as the same text" in refused["error"]
                assert "checkpoint_error" not in refused
            addq = run({"cmd": "addq", "query": "p", "vertices": [[5, "A"], ["5", "B"]],
                        "edges": [[5, "5", "x"]]})
            assert addq["ok"] is False and "write as the same text" in addq["error"]
            assert bridge.refused == 3 and monitor.query_ids() == ["q"]
            run(ins(2, "3"))
            applied = run(commit)
            assert applied["ok"] and applied["applied"] == 1 and "checkpoint_error" not in applied
            assert run({"cmd": "checkpoint"})["ok"]
            graph = monitor.graph("s")
            assert not any(graph.has_vertex(v) for v in ("1", 7, 8, "7"))
