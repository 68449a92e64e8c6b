"""Memory layout of the DSC engine's dominant counters (ISSUE 23).

One flat typed row per stream vertex, one 4-byte slot per query vector:
what the rows cost is a few bytes per (stream vertex x live query vector)
slot, and stream churn — counters leaving zero and coming back — does
not move it, because a row has no table to leave at high water.
"""

import random
import tracemalloc

import pytest

from repro.datasets.queries import make_query_set
from repro.datasets.reality import generate_reality_stream
from repro.join import QuerySet, StreamListenerAdapter
from repro.join.dominated_set_cover import DominatedSetCoverJoin
from repro.nnt import NNTIndex

from .test_nnt_memory import collector_off

#: tracemalloc bytes per dominant slot: with a ``dict[int, int]`` per
#: vertex (zeros dropped, ~2/3 of the slots non-zero) 25.5 at build and
#: 35.8 after the churn below — same entries, the tables left at high
#: water by insert/delete (~50 after 900 ticks of `proximity_join`); 4.36
#: and 4.38 with an ``array("I")`` row per vertex (4 bytes a slot plus
#: the array's header over ~280 slots).
BYTES_PER_SLOT_CEILING = 8

#: How far the after-churn figure may sit from the at-build one.
CHURN_DRIFT_CEILING = 0.10

CHURN_TICKS = 200


def bytes_of_rows(engine: DominatedSetCoverJoin) -> float:
    """Traced bytes per dominant slot: what tracemalloc gets back when the
    engine's rows are dropped (which ends the engine's useful life; the
    collector is off, so nothing else is freed meanwhile), over stream
    vertices x live query vectors."""
    slots = sum(len(vectors) for vectors in engine._mirror.values())
    slots *= engine.query_set.live_vector_count()
    before = tracemalloc.get_traced_memory()[0]
    for state in engine._streams.values():
        state.dominant.clear()
    return (before - tracemalloc.get_traced_memory()[0]) / slots


@pytest.fixture(scope="module")
def bytes_per_slot():
    """(at build, after churn) for a dsc engine over one 97-device
    proximity stream and 60 five-edge queries extracted from it."""
    stream = generate_reality_stream(random.Random(7), CHURN_TICKS + 1)
    extracted = make_query_set([stream.initial], num_edges=5, count=60, seed=7)
    queries = {f"q{i}": query for i, query in enumerate(extracted)}
    index = NNTIndex(stream.initial, depth_limit=3)
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        with collector_off():
            fresh = DominatedSetCoverJoin(QuerySet(queries, depth_limit=3))
            fresh.register_stream(0, index.npvs)
            churned = DominatedSetCoverJoin(QuerySet(queries, depth_limit=3))
            churned.register_stream(0, index.npvs)
            assert churned.query_set.live_vector_count() > 250
            at_build = bytes_of_rows(fresh)
            index.add_listener(StreamListenerAdapter(churned, 0))
            for operation in stream.operations:
                index.apply(operation)
            after_churn = bytes_of_rows(churned)
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return at_build, after_churn


def test_bytes_per_dominant_slot(bytes_per_slot):
    at_build, after_churn = bytes_per_slot
    assert 0 < at_build <= BYTES_PER_SLOT_CEILING
    assert 0 < after_churn <= BYTES_PER_SLOT_CEILING


def test_churn_does_not_grow_the_rows(bytes_per_slot):
    at_build, after_churn = bytes_per_slot
    assert abs(after_churn - at_build) <= CHURN_DRIFT_CEILING * at_build
