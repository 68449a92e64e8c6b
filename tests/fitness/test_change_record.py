"""Size budget of the change record, the paper's ``<op, u, v>`` triple.

A run holds, buffers and ships changes by the hundred thousand, and every
forked worker maps the heap that holds them, so the record's size is
the workload's memory.  A slotted ``EdgeChange`` is 80 B (a dict-backed
one was ~128 B, plus ~64 B more once pickled), and it pickles as its
fields.  A batch holds no ``EdgeChange``: a names table (each distinct
field value once) and one code string of op codes and one-byte refs into
the table, which it pickles as.  Budgets, measured with ``tracemalloc``:

* a held change costs at most 88 B;
* a change held inside a mixed 25-change batch costs at most 40 B
  (22.6 B measured, over 40 distinct ids; 36.6 B as three columns of
  field pointers, 91 B as a tuple of ``EdgeChange``);
* a 25-change batch pickles to at most 360 B (326 B measured; 337 B as
  three columns, 652 B as per-change reduce tuples);
* shipping a batch to a worker, over the ring or the queue, leaves the
  caller's batch exactly as big as it was;
* a pickled batch whose table and code no list of changes builds is refused on
  load, as ``EdgeChange`` refuses a bad change.
"""

from __future__ import annotations

import gc
import pickle
import tracemalloc

import pytest

from repro.graph import LabeledGraph
from repro.graph.operations import EdgeChange, GraphChangeOperation
from repro.runtime import ShardedMonitor

HELD_BYTES_PER_CHANGE = 88
HELD_BYTES_PER_BATCHED_CHANGE = 40
BATCH_PICKLE_BYTES = 360

IDS = [str(i) for i in range(200)]


def _batch(first: int, size: int = 25) -> GraphChangeOperation:
    """``size`` inserts over fresh vertices ``first``, ``first + 1``, ...
    (the ids already exist, so the batch allocates only its records)."""
    return GraphChangeOperation(
        EdgeChange.insert(IDS[first + 2 * i], IDS[first + 2 * i + 1], "x", "A", "B")
        for i in range(size)
    )


def _traced() -> int:
    gc.collect()  # also empties the free lists, which tracemalloc sees as live
    return tracemalloc.get_traced_memory()[0]


@pytest.fixture
def traced():
    # Once any ``@given`` test has run, Hypothesis keeps a ``gc.callbacks``
    # hook that rebinds two float globals (2 x 24 B) on every collection.
    # The first collections under tracing swap untraced floats for traced
    # ones, so the first release measured read 48 B smaller than the
    # second; the measured collections run without foreign hooks.
    hooks, gc.callbacks[:] = gc.callbacks[:], []
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()
        gc.callbacks[:] = hooks


def test_a_held_change_costs_at_most_88_bytes(traced):
    count = 10_000
    held: list = [None] * count
    before = _traced()
    for i in range(count):
        held[i] = EdgeChange.insert(IDS[i % 100], IDS[i % 100 + 1], "x", "A", "B")
    per_change = (_traced() - before) / count
    assert per_change <= HELD_BYTES_PER_CHANGE, per_change
    pickle.dumps(held)
    assert (_traced() - before) / count == pytest.approx(per_change, abs=1), (
        "pickling grew the held changes"
    )


def _mixed_batch() -> GraphChangeOperation:
    """12 plain deletions and 13 labelled insertions over existing ids."""
    return GraphChangeOperation(
        [EdgeChange.delete(IDS[i], IDS[i + 1]) for i in range(0, 24, 2)]
        + [EdgeChange.insert(IDS[i], IDS[i + 50], "x", "A", "B") for i in range(13)]
    )


def test_a_change_held_in_a_mixed_batch_costs_at_most_40_bytes(traced):
    count = 400
    held: list = [None] * count
    before = _traced()
    for i in range(count):
        held[i] = _mixed_batch()
    per_change = (_traced() - before) / (count * len(held[0]))
    assert per_change <= HELD_BYTES_PER_BATCHED_CHANGE, per_change


def test_a_25_change_batch_pickles_to_at_most_360_bytes():
    batch = _mixed_batch()
    payload = pickle.dumps(batch)
    assert len(payload) <= BATCH_PICKLE_BYTES, len(payload)
    assert pickle.loads(payload) == batch


def _pickled(names: tuple, code: bytes) -> bytes:
    """A pickle that loads a batch from the names table and code string
    given, through the loader a real batch pickles with."""
    load = GraphChangeOperation().__reduce__()[0]

    class Forged:
        def __reduce__(self):
            return (load, (names, code))

    return pickle.dumps(Forged())


def test_well_formed_columns_load_as_the_batch_they_came_from():
    batch = GraphChangeOperation(
        [
            EdgeChange.delete("1", "2"),
            EdgeChange("del", "3", "4", "x"),
            EdgeChange.insert("5", "6", "x", "A", None),
        ]
    )
    assert pickle.loads(_pickled(*batch.__reduce__()[1])) == batch


@pytest.mark.parametrize(
    "layout, refusal",
    [
        ((("7",), b"\x01d\x00\x00"), "self loops"),
        ((("7", "x", "A"), b"\x01i\x00\x00\x01\x02\x02"), "self loops"),
        ((("7", "x", None), b"\x01D\x00\x00\x01\x02\x02"), "self loops"),
        ((("1", "2", "x", "A", "B"), b"\x01u\x00\x01\x02\x03\x04"), "op code"),
        ((("1", "2"), b"\x02d\x00\x00\x01"), "op code"),
        ((("1", "2"), b"\x02dd\x00\x01"), "ragged"),
        ((("1", "2", "3"), b"\x01d\x00\x01\x02"), "ragged"),
        ((("1", "2", "x", "A"), b"\x01i\x00\x01\x02\x03"), "ragged"),
        ((("1", "2"), b"\x00\x00\x01"), "ragged"),
        ((("1", "2", "-", None), b"\x01D\x00\x01\x02\x03\x03"), "no label"),
        ((["1", "2"], b"\x01d\x00\x01"), "names tuple and a code string"),
        ((("1", "2"), "\x01d\x00\x01"), "names tuple and a code string"),
    ],
    ids=[
        "self-loop-pair",
        "self-loop-insert",
        "self-loop-labelled-delete",
        "unknown-op",
        "unknown-op-nul",
        "ragged-short-pairs",
        "ragged-odd-pairs",
        "ragged-short-row",
        "ragged-no-ops",
        "labelled-delete-without-label",
        "list-column",
        "str-ops",
    ],
)
def test_a_batch_whose_columns_no_changes_build_is_refused_on_load(layout, refusal):
    with pytest.raises(ValueError, match=refusal):
        pickle.loads(_pickled(*layout))


def _freed_on_release(holder: list[GraphChangeOperation]) -> int:
    """What dropping the last reference to the batch ``holder`` holds
    gives back."""
    before = _traced()
    holder.clear()
    return before - _traced()


@pytest.mark.parametrize("shm", [True, False], ids=["ring", "queue"])
def test_shipping_a_batch_leaves_it_as_big_as_it_was(shm, traced):
    query = LabeledGraph.from_vertices_and_edges([(0, "A"), (1, "B")], [(0, 1, "x")])
    monitor = ShardedMonitor({"q": query}, num_workers=1, shm=shm)
    try:
        monitor.add_stream("s")
        kept, shipped = [_batch(0)], [_batch(100)]
        monitor.apply("s", shipped[0])
        # A barrier: the worker has read the apply, so the wire holds no
        # reference to the batch any more.
        assert monitor.matches() == {("s", "q")}
        assert monitor.graph("s").num_edges == 25
        assert _freed_on_release(shipped) == _freed_on_release(kept)
    finally:
        monitor.close()
