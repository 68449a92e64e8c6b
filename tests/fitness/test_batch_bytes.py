"""Byte budget of a change batch as the Fig 15 coin-flip streams make them.

A sharded run builds its whole script before it forks, so every forked
worker maps the runner's batches again, and each tick ships one batch per
stream through a payload ring.  The same few vertex ids and labels repeat
through a batch: it holds each distinct value once in a names table and
every field as a one-byte ref into it.  Budgets, per change:

* a sparse-shaped batch (23 changes over 18 vertices, the
  ``sparse_sharded_churn`` shape) holds at most 20 B (17.3 B measured;
  34.8 B as three columns of field pointers) and pickles to at most
  10.5 B (9.8 B measured; 11.3 B as three columns);
* a dense-shaped batch (11 changes over 12 vertices, the ``dense_nnt``
  shape) holds at most 28 B (25.1 B measured; 38.9 B as three columns).

Held size is ``sys.getsizeof`` of the batch and of the objects it owns
(the containers its pickle carries); the ids and labels themselves are
shared with the graphs and every other batch, so they are not counted.
"""

from __future__ import annotations

import pickle
import random
import sys

from repro.graph import EdgeChange, GraphChangeOperation

SPARSE_HELD_BYTES_PER_CHANGE = 20
SPARSE_PICKLED_BYTES_PER_CHANGE = 10.5
DENSE_HELD_BYTES_PER_CHANGE = 28

LABELS = ("v0", "v1", "v2", "v3")
EDGE = "e0"


def coin_flip_batch(
    vertices: int, p_appear: float, p_disappear: float, changes: int, seed: int
) -> GraphChangeOperation:
    """``changes`` per-pair coin flips over ``vertices`` string ids, from a
    graph at the streams' equilibrium density ``p_appear / (p_appear +
    p_disappear)``: a present edge goes with ``p_disappear``, an absent
    one comes with ``p_appear`` (Section V-B of the paper)."""
    rng = random.Random(seed)
    ids = [str(i) for i in range(vertices)]
    labels = {vertex: rng.choice(LABELS) for vertex in ids}
    pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1 :]]
    density = p_appear / (p_appear + p_disappear)
    present = {pair for pair in pairs if rng.random() < density}
    batch: list[EdgeChange] = []
    while len(batch) < changes:
        for u, v in pairs:
            if (u, v) in present:
                if rng.random() < p_disappear:
                    present.discard((u, v))
                    batch.append(EdgeChange.delete(u, v))
            elif rng.random() < p_appear:
                present.add((u, v))
                batch.append(EdgeChange.insert(u, v, EDGE, labels[u], labels[v]))
            if len(batch) == changes:
                break
    return GraphChangeOperation(batch)


def held_bytes(batch: GraphChangeOperation) -> int:
    """The batch and the containers it owns, not the names they hold."""
    return sys.getsizeof(batch) + sum(map(sys.getsizeof, batch.__reduce__()[1]))


def sparse_batch() -> GraphChangeOperation:
    return coin_flip_batch(18, 0.10, 0.30, 23, seed=15)


def dense_batch() -> GraphChangeOperation:
    return coin_flip_batch(12, 0.20, 0.15, 11, seed=15)


def test_a_sparse_batch_holds_at_most_20_bytes_a_change():
    batch = sparse_batch()
    assert len(batch) == 23
    per_change = held_bytes(batch) / len(batch)
    assert per_change <= SPARSE_HELD_BYTES_PER_CHANGE, per_change


def test_a_sparse_batch_pickles_to_at_most_10_5_bytes_a_change():
    batch = sparse_batch()
    payload = pickle.dumps(batch)
    assert pickle.loads(payload) == batch
    per_change = len(payload) / len(batch)
    assert per_change <= SPARSE_PICKLED_BYTES_PER_CHANGE, per_change


def test_a_dense_batch_holds_at_most_28_bytes_a_change():
    batch = dense_batch()
    assert len(batch) == 11
    per_change = held_bytes(batch) / len(batch)
    assert per_change <= DENSE_HELD_BYTES_PER_CHANGE, per_change
