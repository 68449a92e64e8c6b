"""Memory of the NNT index, and what `check_integrity` holds it to.

The index keeps the graph and the NPVs and no tree: churn leaves nothing
for the cycle collector, a live NPV entry costs a bounded number of
bytes, and `NNTIndex.check_integrity` notices a wrong NPV, a wrong
logical node counter, an NPV for a vertex the graph lacks and a check run
inside an open delta batch.
"""

import gc
import random
import tracemalloc
from contextlib import contextmanager

import pytest

from repro.datasets.reality import generate_reality_stream
from repro.graph import LabeledGraph
from repro.nnt import NNTIndex

#: tracemalloc bytes the index holds per live NPV entry after the churn
#: below (graph copy, NPV dicts and interned dimensions included): 190
#: while every NNT was stored to depth l - 1, 72 with NPVs alone.
BYTES_PER_NPV_ENTRY_CEILING = 96


@contextmanager
def collector_off():
    """Start from a collected heap, then keep the cycle collector out."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def path_graph() -> LabeledGraph:
    return LabeledGraph.from_vertices_and_edges(
        [(1, "A"), (2, "B"), (3, "C"), (4, "B")],
        [(1, 2, "-"), (2, 3, "-"), (3, 4, "-")],
    )


@pytest.fixture(scope="module")
def churned():
    """An index built on a 97-device proximity graph and driven through 40
    churn ticks with the collector off: the index, the bytes it holds and
    what a full collection then finds."""
    stream = generate_reality_stream(random.Random(7), 41)
    assert stream.initial.num_vertices == 97 and len(stream.operations) == 40
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        with collector_off():
            before = tracemalloc.get_traced_memory()[0]
            index = NNTIndex(stream.initial, depth_limit=3)
            for operation in stream.operations:
                index.apply(operation)
            unreachable = gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return index, held, unreachable


def test_churn_leaves_nothing_for_the_collector(churned):
    index, _, unreachable = churned
    assert index.stats["tree_nodes_removed"] > 10_000  # the churn was real
    assert unreachable == 0
    index.check_integrity()


def test_bytes_per_live_npv_entry(churned):
    index, held, _ = churned
    entries = sum(map(len, index.npvs.values()))
    assert entries > 5_000
    assert held / entries <= BYTES_PER_NPV_ENTRY_CEILING


def _implied_leaf_count_off_by_one(index):
    # NNT(1) = 1 -> 2 -> 3 -> 4: one depth-3 tree edge, C -> B.
    assert index.npvs[1][(3, "C", "B")] == 1
    index.npvs[1][(3, "C", "B")] = 2


def _logical_counter_off_by_one(index):
    index.num_tree_nodes += 1


def _npv_of_a_vertex_not_in_the_graph(index):
    index.npvs[9] = {}


def _batch_left_open(index):
    index._batch_depth += 1  # what a `with index.batch():` holds until it exits


@pytest.mark.parametrize(
    "corrupt",
    [
        _implied_leaf_count_off_by_one,
        _logical_counter_off_by_one,
        _npv_of_a_vertex_not_in_the_graph,
        _batch_left_open,
    ],
)
def test_check_integrity_sees_layout_corruption(corrupt):
    index = NNTIndex(path_graph(), depth_limit=3)
    index.check_integrity()
    corrupt(index)
    with pytest.raises(AssertionError):
        index.check_integrity()
