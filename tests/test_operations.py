"""Unit tests for graph change operations (Definitions 2.4-2.5)."""

import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    DELETE,
    INSERT,
    EdgeChange,
    GraphChangeOperation,
    GraphError,
    LabeledGraph,
    apply_change,
    apply_operation,
    check_batch,
    diff_graphs,
)
from repro.graph.operations import apply_batch_validated
from repro.nnt import NNTIndex
from repro.serve.protocol import change_from_dict, change_to_dict

from .conftest import graph_strategy
from .fitness.test_change_record import _pickled


def base_graph() -> LabeledGraph:
    return LabeledGraph.from_vertices_and_edges(
        [(1, "A"), (2, "B"), (3, "C")],
        [(1, 2, "x"), (2, 3, "y")],
    )


class TestEdgeChange:
    def test_insert_factory(self):
        change = EdgeChange.insert(1, 2, "x", "A", "B")
        assert change.op == INSERT
        assert (change.u, change.v) == (1, 2)
        assert (change.u_label, change.v_label) == ("A", "B")

    def test_delete_factory(self):
        change = EdgeChange.delete(1, 2)
        assert change.op == DELETE

    def test_invalid_op_rejected(self):
        with pytest.raises(ValueError):
            EdgeChange("upsert", 1, 2)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            EdgeChange.insert(1, 1)

    def test_frozen(self):
        change = EdgeChange.delete(1, 2)
        with pytest.raises(AttributeError):
            change.u = 9


_ids = st.one_of(st.text(min_size=1, max_size=6), st.integers(-(10**9), 10**9))
_labels = st.text(max_size=4)


@st.composite
def _changes(draw):
    u = draw(_ids)
    v = draw(_ids.filter(lambda v: v != u))
    if draw(st.booleans()):
        return EdgeChange.delete(u, v)
    return EdgeChange.insert(
        u, v, draw(_labels), draw(st.none() | _labels), draw(st.none() | _labels)
    )


class TestRecord:
    """The change types are fixed-layout records that pickle as their
    constructor arguments."""

    def test_no_instance_dict(self):
        change = EdgeChange.insert(1, 2, "x", "A", "B")
        batch = GraphChangeOperation([change])
        for record in (change, batch):
            assert not hasattr(record, "__dict__")
            with pytest.raises(AttributeError):
                object.__setattr__(record, "note", 1)
        pickle.dumps(batch)
        assert not hasattr(change, "__dict__")

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_changes(), max_size=8))
    def test_pickle_and_wire_round_trips(self, changes):
        batch = GraphChangeOperation(changes)
        over_wire = GraphChangeOperation(
            change_from_dict(json.loads(json.dumps(change_to_dict(c)))) for c in changes
        )
        for copy in (pickle.loads(pickle.dumps(batch)), over_wire):
            assert copy == batch and hash(copy) == hash(batch)
            for mine, theirs in zip(copy, batch, strict=True):
                assert mine == theirs and hash(mine) == hash(theirs)
                assert type(mine.u) is type(theirs.u) and type(mine.v) is type(theirs.v)

    def test_a_forged_self_loop_payload_is_refused_on_load(self):
        class Forged:
            def __reduce__(self):
                return (EdgeChange, (INSERT, 7, 7, "-", "A", "A"))

        forged = pickle.dumps(Forged())
        assert b"EdgeChange" in forged
        with pytest.raises(ValueError, match="self loops"):
            pickle.loads(forged)


class TestGraphChangeOperation:
    def test_iteration_and_len(self):
        operation = GraphChangeOperation([EdgeChange.delete(1, 2), EdgeChange.insert(3, 4, "x")])
        assert len(operation) == 2
        assert [c.op for c in operation] == [DELETE, INSERT]
        assert bool(operation)
        assert not GraphChangeOperation()

    def test_sequentialized_deletions_first(self):
        operation = GraphChangeOperation(
            [EdgeChange.insert(3, 4, "x"), EdgeChange.delete(1, 2), EdgeChange.insert(5, 6, "x")]
        )
        ops = [c.op for c in operation.sequentialized()]
        assert ops == [DELETE, INSERT, INSERT]
        assert len(operation.deletions) == 1
        assert len(operation.insertions) == 2


_edge_labels = st.sampled_from(["-", "x", "y"])
_vertex_labels = st.sampled_from([None, "A", "A", "B"])


@st.composite
def _mixed_batches(draw):
    """A graph and a list of changes over its ids in any order: mostly a
    batch it accepts (deletions of its edges, insertions of pairs those
    leave free), sometimes one it refuses.  Some deletions carry labels."""
    graph = draw(graph_strategy())
    edges = sorted((min(u, v), max(u, v)) for u, v, _ in graph.edges())
    deleted = draw(st.lists(st.sampled_from(edges), unique=True)) if edges else []
    free = [(u, v) for u in range(10) for v in range(u + 1, 10)]
    free = [pair for pair in free if pair not in edges or pair in deleted]
    inserted = draw(st.lists(st.sampled_from(free), unique=True, max_size=6))
    changes = []
    for u, v in deleted:
        if draw(st.booleans()):
            changes.append(EdgeChange.delete(u, v))
        else:
            labels = (draw(_edge_labels), draw(_vertex_labels), draw(_vertex_labels))
            changes.append(EdgeChange(DELETE, u, v, *labels))
    for u, v in inserted:
        labels = (draw(_edge_labels), draw(_vertex_labels), draw(_vertex_labels))
        changes.append(EdgeChange.insert(u, v, *labels))
    if draw(st.integers(0, 3)) == 0:  # a change that may be refused
        u, v = draw(st.lists(st.integers(0, 9), min_size=2, max_size=2, unique=True))
        changes.append(EdgeChange(draw(st.sampled_from([INSERT, DELETE])), u, v))
    return graph, draw(st.permutations(changes))


def _on_a_copy(graph: LabeledGraph, apply) -> tuple[LabeledGraph, str | None]:
    """``graph`` after ``apply`` on a copy of it, and the refusal if any."""
    copy = graph.copy()
    try:
        apply(copy)
    except GraphError as refused:
        return copy, str(refused)
    return copy, None


class TestColumns:
    """A batch holds its changes as columns; it reads, pickles and applies
    exactly as the tuple of its changes does."""

    @settings(max_examples=300, deadline=None)
    @given(_mixed_batches())
    def test_the_columns_are_the_changes(self, drawn):
        graph, changes = drawn
        batch = GraphChangeOperation(changes)
        assert list(batch) == changes and batch.changes == tuple(changes)
        for mine, given_change in zip(batch, changes, strict=True):
            assert mine.__reduce__() == given_change.__reduce__()
        assert len(batch) == len(changes) and bool(batch) == bool(changes)
        deletions = tuple(c for c in changes if c.op == DELETE)
        insertions = tuple(c for c in changes if c.op == INSERT)
        assert batch.deletions == deletions and batch.insertions == insertions
        assert batch.sequentialized() == deletions + insertions
        assert list(batch.deletion_pairs()) == [(c.u, c.v) for c in deletions]
        assert list(batch.insertion_rows()) == [c.__reduce__()[1][1:] for c in insertions]
        copy = pickle.loads(pickle.dumps(batch))
        assert copy == batch and hash(copy) == hash(batch) and list(copy) == changes
        assert GraphChangeOperation(batch) == batch

        # The tuple form: the changes one by one, deletions first.
        def one_by_one(target):
            for change in deletions + insertions:
                apply_change(target, change)

        expected, refusal = _on_a_copy(graph, one_by_one)
        applied, refused = _on_a_copy(graph, lambda target: apply_operation(target, batch))
        assert (applied, refused) == (expected, refusal)
        checked, verdict = _on_a_copy(graph, lambda target: check_batch(target, batch))
        assert checked == graph and verdict == refusal
        if refusal is None:
            index = NNTIndex(graph)
            index.apply(batch)
            index.check_integrity()
            assert index.graph == expected


#: Equal values of different types: a batch must give back each one as
#: it was given, never an equal value of another type.
_TWINS = (1, True, 1.0, "1", 0, False, 0.0, "0", 2, "2")
_twin_labels = st.sampled_from(("1", "x", 1, True, 1.0, "-"))


@st.composite
def _twin_changes(draw):
    u = draw(st.sampled_from(_TWINS))
    v = draw(st.sampled_from(_TWINS).filter(lambda v: v != u))
    op = draw(st.sampled_from(["plain", "labelled", "insert"]))
    if op == "plain":
        return EdgeChange.delete(u, v)
    labels = (draw(_twin_labels), draw(st.none() | _twin_labels), draw(st.none() | _twin_labels))
    if op == "labelled" and labels == ("-", None, None):
        labels = ("x", None, None)
    return EdgeChange(DELETE if op == "labelled" else INSERT, u, v, *labels)


def _on_the_wire(change: EdgeChange) -> bool:
    """Does the JSON wire carry ``change`` (ids strings or integers,
    labels strings, no labelled deletion)?"""
    ids = all(type(field) in (str, int) for field in (change.u, change.v))
    if change.op == DELETE:
        return ids and change.__reduce__()[1][3:] == ("-", None, None)
    labels = (change.edge_label, change.u_label or "", change.v_label or "")
    return ids and all(type(label) is str for label in labels)


def _typed(rows) -> list[tuple]:
    """Every field of ``rows`` with its type, so ``1`` and ``True`` differ."""
    return [tuple((type(field), field) for field in row) for row in rows]


def _wide_batch(names: int) -> GraphChangeOperation:
    """Insertions over ``names - 3`` fresh ids (an even count), then
    deletions of the first ten of them: a table of ``names`` names (the
    ids, "x", "A", "B")."""
    ids = list(range(names - 3))
    return GraphChangeOperation(
        [EdgeChange.insert(a, b, "x", "A", "B") for a, b in zip(ids[::2], ids[1::2])]
        + [EdgeChange.delete(a, b) for a, b in zip(ids[:20:2], ids[1:20:2])]
    )


class TestNamesTable:
    """A batch holds each distinct field value once, in a names table,
    and every field as a ref into it; it gives back every field as it
    was given, type included."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_twin_changes(), max_size=12))
    def test_every_field_keeps_its_type(self, changes):
        batch = GraphChangeOperation(changes)
        rows = [c.__reduce__()[1] for c in changes]
        assert _typed(c.__reduce__()[1] for c in batch) == _typed(rows)
        deletions = [row[1:3] for row in rows if row[0] == DELETE]
        insertions = [row[1:] for row in rows if row[0] == INSERT]
        assert _typed(batch.deletion_pairs()) == _typed(deletions)
        assert _typed(batch.insertion_rows()) == _typed(insertions)
        copy = pickle.loads(pickle.dumps(batch))
        assert _typed(c.__reduce__()[1] for c in copy) == _typed(rows)
        assert _typed(copy.insertion_rows()) == _typed(insertions)
        wired = [c for c in changes if _on_the_wire(c)]
        over_wire = GraphChangeOperation(
            change_from_dict(json.loads(json.dumps(change_to_dict(c)))) for c in wired
        )
        assert _typed(c.__reduce__()[1] for c in over_wire) == _typed(
            c.__reduce__()[1] for c in wired
        )

    def test_each_name_is_held_once(self):
        batch = GraphChangeOperation(
            [EdgeChange.insert("a", "b", "x", "A", "A"), EdgeChange.delete("a", "b")]
            + [EdgeChange.insert(1, "b", "x", True, 1.0)]
        )
        names = batch.__reduce__()[1][0]
        assert _typed((names,)) == _typed((("a", "b", "x", "A", 1, True, 1.0),))

    @pytest.mark.parametrize("names", [257, 65_537], ids=["past-256", "past-65536"])
    def test_a_table_past_one_byte_refs(self, names):
        batch = _wide_batch(names)
        assert len(batch.__reduce__()[1][0]) == names
        changes = list(batch)
        assert changes[-1] == EdgeChange.delete(18, 19)
        assert changes[(names - 3) // 2 - 1].__reduce__()[1][1:3] == (names - 5, names - 4)
        copy = pickle.loads(pickle.dumps(batch))
        assert copy == batch and hash(copy) == hash(batch) and list(copy) == changes
        assert list(copy.deletion_pairs()) == [(c.u, c.v) for c in changes if c.op == DELETE]
        graph = LabeledGraph()
        for first_ten in copy.deletion_pairs():
            apply_change(graph, EdgeChange.insert(*first_ten, "x", "A", "B"))
        apply_operation(graph, copy)  # deletions first: the ten go, then come back
        assert graph.num_edges == (names - 3) // 2

    def test_more_than_255_changes_over_few_names(self):
        changes = [EdgeChange.insert(0, 1, "x", "A", "B"), EdgeChange.delete(0, 1)] * 200
        batch = GraphChangeOperation(changes)
        assert len(batch) == 400 and list(batch) == changes
        assert pickle.loads(pickle.dumps(batch)) == batch

    @pytest.mark.parametrize(
        "names, code, refusal",
        [
            (("1", "2", "x", "A", "B"), b"\x01u\x00\x01\x02\x03\x04", "op code"),
            (("1", "2"), b"\x02dd\x00\x01", "ragged"),
            (("1", "2"), b"\x01d\x00\x01\x01", "ragged"),
            (("1", "2"), b"\x05dd", "ragged"),
            (("1", "2"), b"", "ragged"),
            (("1", "2"), b"\x01d\x00\x02", "outside"),
            (("1", "2", "x", "A"), b"\x01i\x00\x01\x02\x03\x04", "outside"),
            (("7",), b"\x01d\x00\x00", "self loops"),
            (("7", "x", "A"), b"\x01i\x00\x00\x01\x02\x02", "self loops"),
            ((1, True), b"\x01d\x00\x01", "self loops"),
            (("1", "2", "-", None), b"\x01D\x00\x01\x02\x03\x03", "no label"),
            (["1", "2"], b"\x01d\x00\x01", "names tuple"),
            (("1", "2"), bytearray(b"\x01d\x00\x01"), "names tuple"),
        ],
        ids=[
            "unknown-op",
            "ragged-pairs",
            "ragged-extra-ref",
            "count-past-the-code",
            "empty-code",
            "ref-outside-the-table",
            "row-ref-outside-the-table",
            "self-loop-equal-refs",
            "self-loop-insert",
            "self-loop-equal-names",
            "labelled-delete-without-label",
            "list-table",
            "bytearray-code",
        ],
    )
    def test_a_forged_payload_is_refused_on_load(self, names, code, refusal):
        with pytest.raises(ValueError, match=refusal):
            pickle.loads(_pickled(names, code))

    @pytest.mark.parametrize(
        "last, refusal",
        [(301, "outside"), (-1, "names tuple"), (True, "names tuple"), ("1", "names tuple")],
        ids=["ref-outside-the-table", "negative-ref", "bool-ref", "str-ref"],
    )
    def test_a_forged_wide_payload_is_refused_on_load(self, last, refusal):
        names, code = _wide_batch(301).__reduce__()[1]
        assert pickle.loads(_pickled(names, code)) == _wide_batch(301)
        with pytest.raises(ValueError, match=refusal):
            pickle.loads(_pickled(names, code[:-1] + (last,)))


class TestApply:
    def test_insert_existing_vertices(self):
        graph = base_graph()
        apply_change(graph, EdgeChange.insert(1, 3, "z"))
        assert graph.edge_label(1, 3) == "z"

    def test_insert_creates_vertex_with_label(self):
        graph = base_graph()
        apply_change(graph, EdgeChange.insert(1, 9, "z", v_label="D"))
        assert graph.vertex_label(9) == "D"

    def test_insert_new_vertex_without_label_fails(self):
        graph = base_graph()
        with pytest.raises(GraphError):
            apply_change(graph, EdgeChange.insert(1, 9, "z"))

    def test_delete_drops_isolated_vertices(self):
        graph = base_graph()
        apply_change(graph, EdgeChange.delete(2, 3))
        assert not graph.has_vertex(3)  # 3 became isolated
        assert graph.has_vertex(2)  # 2 still has the (1,2) edge

    def test_apply_operation_batch(self):
        graph = base_graph()
        apply_operation(
            graph,
            GraphChangeOperation(
                [
                    # Deletion runs first and isolates vertex 1 (dropping
                    # it), so the insertion must re-supply its label.
                    EdgeChange.insert(1, 3, "z", u_label="A"),
                    EdgeChange.delete(1, 2),
                ]
            ),
        )
        assert graph.has_edge(1, 3)
        assert graph.vertex_label(1) == "A"
        assert not graph.has_edge(1, 2)
        assert graph.has_vertex(2)  # still holds the (2,3) edge

    def test_delete_missing_edge_raises(self):
        with pytest.raises(GraphError):
            apply_change(base_graph(), EdgeChange.delete(1, 3))


class TestValidatedBatch:
    def test_refused_insert_touches_nothing(self):
        # 7 has its label, 8 does not: 7 must not be left behind.
        graph = base_graph()
        with pytest.raises(GraphError):
            apply_change(graph, EdgeChange.insert(7, 8, "z", "G", None))
        assert graph == base_graph()

    def test_accepts_a_single_change(self):
        graph = base_graph()
        check_batch(graph, EdgeChange.insert(1, 3, "z"))
        assert graph == base_graph()
        apply_batch_validated(graph, EdgeChange.insert(1, 3, "z"))
        assert graph.has_edge(1, 3)

    def test_check_keeps_a_vertex_that_was_isolated_before(self):
        graph = base_graph()
        graph.add_vertex(4, "D")  # isolated from the start (initial graphs may be)
        pristine = graph.copy()
        batch = GraphChangeOperation([EdgeChange.insert(4, 5, "w", None, "E")])
        check_batch(graph, batch)  # 4 is there: it needs no label
        assert graph == pristine
        expected = graph.copy()
        apply_operation(expected, batch)
        apply_batch_validated(graph, batch)
        assert graph == expected and graph.vertex_label(4) == "D"

    def test_a_vertex_a_deletion_isolates_needs_its_label_again(self):
        graph = base_graph()
        batch = GraphChangeOperation([EdgeChange.delete(2, 3), EdgeChange.insert(3, 1, "z")])
        with pytest.raises(GraphError, match="creates vertex 3"):
            check_batch(graph, batch)
        assert graph == base_graph()

    @settings(max_examples=60, deadline=None)
    @given(
        graph_strategy(),
        st.lists(
            st.tuples(
                st.booleans(),
                st.lists(st.integers(0, 9), min_size=2, max_size=2, unique=True),
                st.sampled_from([None, "A", "B"]),
            ),
            max_size=6,
        ),
    )
    def test_check_refuses_iff_apply_on_a_copy_refuses(self, graph, specs):
        """Same verdict and message as ``apply_operation`` on a copy, no
        mutation, and check-then-apply equals apply-on-a-copy."""
        batch = GraphChangeOperation(
            EdgeChange.insert(u, v, "x", label, label) if insert else EdgeChange.delete(u, v)
            for insert, (u, v), label in specs
        )
        pristine = graph.copy()
        expected = graph.copy()
        try:
            apply_operation(expected, batch)
        except GraphError as refused:
            with pytest.raises(GraphError) as excinfo:
                check_batch(graph, batch)
            assert str(excinfo.value) == str(refused)
            assert graph == pristine
            return
        check_batch(graph, batch)
        assert graph == pristine
        apply_batch_validated(graph, batch)
        assert graph == expected


class TestDiffGraphs:
    def test_identical_graphs_empty_diff(self):
        assert len(diff_graphs(base_graph(), base_graph())) == 0

    def test_diff_reconstructs_target(self):
        old = base_graph()
        new = base_graph()
        new.remove_edge(1, 2)
        new.add_edge(1, 3, "z")  # keep vertex 1 non-isolated
        new.add_vertex(4, "D")
        new.add_edge(3, 4, "w")
        delta = diff_graphs(old, new)
        apply_operation(old, delta)
        assert old == new

    def test_label_change_is_delete_plus_insert(self):
        old = base_graph()
        new = base_graph()
        new.remove_edge(1, 2)
        new.add_edge(1, 2, "CHANGED")
        delta = diff_graphs(old, new)
        assert len(delta.deletions) == 1
        assert len(delta.insertions) == 1

    def test_relabelled_vertex_is_refused(self):
        """No batch of edge changes relabels a vertex, so an empty one
        would leave ``old != new``: refused, naming the vertex."""
        old = base_graph()
        new = LabeledGraph.from_vertices_and_edges(
            [(v, "C" if v == 1 else label) for v, label in old.vertex_items()], old.edges()
        )
        with pytest.raises(GraphError, match="vertex 1 "):
            diff_graphs(old, new)


@settings(max_examples=40, deadline=None)
@given(graph_strategy(), graph_strategy(min_vertices=2))
def test_diff_then_apply_reaches_target(old, new):
    # Share vertex labels where ids overlap (diff requires consistency).
    aligned = new.copy()
    for vertex in list(aligned.vertices()):
        if old.has_vertex(vertex) and old.vertex_label(vertex) != aligned.vertex_label(vertex):
            label = old.vertex_label(vertex)
            rebuilt = aligned.relabeled({})
            # rebuild with the shared label
            replacement = LabeledGraph()
            for v, lab in rebuilt.vertex_items():
                replacement.add_vertex(v, label if v == vertex else lab)
            for a, b, lab in rebuilt.edges():
                replacement.add_edge(a, b, lab)
            aligned = replacement
    working = old.copy()
    apply_operation(working, diff_graphs(old, aligned))
    # Compare edge sets and labels of shared structure; isolated vertices
    # are dropped by deletion semantics, so compare edges only.
    assert {frozenset((u, v)): l for u, v, l in working.edges()} == {
        frozenset((u, v)): l for u, v, l in aligned.edges()
    }
