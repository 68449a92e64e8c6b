"""Memory layout of the NNT store (ISSUEs 12 and 15).

What the layout promises, each checked where it can be observed: removed
subtrees are acyclic and die by reference count, churn leaves nothing for
the cycle collector, a live *logical* tree node (materialised above the
depth limit, implied at it) costs a bounded number of bytes, and
`NNTIndex.check_integrity` notices when any of the layout's own invariants
(slot back-pointers, no empty edge bucket, interned dimensions, a
dict-free deepest materialised level, the implied level's NPV counts, the
logical node counter) is broken.
"""

import gc
import random
import tracemalloc
import weakref
from contextlib import contextmanager

import pytest

from repro.datasets.reality import generate_reality_stream
from repro.graph import LabeledGraph
from repro.nnt import NNTIndex, build_nnt
from repro.nnt import incremental
from repro.nnt.tree import NO_CHILDREN, TreeNode

#: tracemalloc bytes per live logical tree node after the churn below: 530
#: with set buckets, a dict per node and a tuple per node; ~215 with every
#: level materialised; 61 with the depth-limit level implied (44 at build:
#: the churn drains a third of the graph, and the per-vertex NPV dicts and
#: inner nodes' children dicts keep their high-water tables).
BYTES_PER_NODE_CEILING = 64


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


class WeakNode(TreeNode):
    """A TreeNode a test can hold a weak reference to."""

    __slots__ = ("__weakref__",)


def test_deleted_subtree_dies_without_the_collector(monkeypatch):
    monkeypatch.setattr(incremental, "TreeNode", WeakNode)
    index = NNTIndex(path_graph(), depth_limit=4)
    # NNT(1) is the path 1 -> 2 -> 3 -> 4, materialised to its end at
    # depth limit 4; deleting (1, 2) detaches the subtree topped by 2,
    # whose inner node 3 has a parent and a child.
    inner = weakref.ref(index.tree(1).root.children[2].children[3])
    assert inner().children and inner().parent is not None
    with collector_off():
        index.delete_edge(1, 2)
        assert inner() is None
    index.check_integrity()


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


def test_bytes_per_live_tree_node(churned):
    index, held, _ = churned
    assert held / index.num_tree_nodes <= BYTES_PER_NODE_CEILING


def test_reference_and_indexed_trees_share_one_shape():
    graph = path_graph()
    # The index stores NNT(1) to depth l - 1: at l = 3 that is the shape
    # of the depth-2 reference tree, deepest level dict-free in both.
    index = NNTIndex(graph, depth_limit=3)
    for tree in (build_nnt(graph, 1, 2), index.tree(1)):
        leaf = tree.root.children[2].children[3]
        assert leaf.children is NO_CHILDREN and not list(leaf.descendants(include_self=False))
        assert type(tree.root.children) is dict and type(tree.root.children[2].children) is dict
        with pytest.raises(TypeError):
            leaf.children[4] = TreeNode(4, leaf, 3, "-")


def _swap_node_slots(index):
    bucket = index.node_index[3]
    bucket[0], bucket[1] = bucket[1], bucket[0]


def _forget_edge_slot(index):
    index.edge_index[(2, 3)][0].epos += 1


def _leave_empty_edge_bucket(index):
    index.edge_index[(1, 4)] = []


def _copy_a_dimension(index):
    node = index.tree(1).root.children[2]
    node.dim = tuple(list(node.dim))


def _private_dict_on_a_leaf(index):
    # The stored tree's leaves: depth l - 1 = 2, where 1 -> 2 -> 3 ends.
    index.tree(1).root.children[2].children[3].children = {}


def _implied_leaf_count_off_by_one(index):
    # NNT(1) = 1 -> 2 -> 3 -> 4: the depth-3 edge C -> B exists only as a count.
    assert index.npvs[1][(3, "C", "B")] == 1
    index.npvs[1][(3, "C", "B")] = 2


def _logical_counter_off_by_one(index):
    index.num_tree_nodes += 1


@pytest.mark.parametrize(
    "corrupt",
    [
        _swap_node_slots,
        _forget_edge_slot,
        _leave_empty_edge_bucket,
        _copy_a_dimension,
        _private_dict_on_a_leaf,
        _implied_leaf_count_off_by_one,
        _logical_counter_off_by_one,
    ],
)
def test_check_integrity_sees_layout_corruption(corrupt):
    index = NNTIndex(path_graph(), depth_limit=3)
    index.check_integrity()
    corrupt(index)
    with pytest.raises(AssertionError):
        index.check_integrity()
