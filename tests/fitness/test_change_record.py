"""Size budget of the change record, the paper's ``<op, u, v>`` triple.

A run holds, buffers and ships changes by the hundred thousand, and every
forked worker maps the heap that holds them, so the record's size is
the workload's memory.  A slotted ``EdgeChange`` is 80 B (a dict-backed
one was ~128 B, plus ~64 B more once pickled), and it pickles as its
fields.  Budgets, measured with ``tracemalloc``:

* a held change costs at most 88 B;
* a 25-change batch pickles to at most 720 B;
* shipping a batch to a worker, over the ring or the queue, leaves the
  caller's batch exactly as big as it was.
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
BATCH_PICKLE_BYTES = 720

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
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


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


def test_a_25_change_batch_pickles_to_at_most_720_bytes():
    batch = GraphChangeOperation(
        [EdgeChange.delete(IDS[i], IDS[i + 1]) for i in range(0, 24, 2)]
        + [EdgeChange.insert(IDS[i], IDS[i + 50], "x", "A", "B") for i in range(13)]
    )
    payload = pickle.dumps(batch)
    assert len(payload) <= BATCH_PICKLE_BYTES, len(payload)
    assert pickle.loads(payload) == batch


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
