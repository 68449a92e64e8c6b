"""Memory layout of the DSC engine's dominant counters (ISSUE 23).

One flat typed row per stream vertex, one 4-byte slot per query vector:
what the rows cost is a few bytes per (stream vertex x live query vector)
slot, and stream churn — counters leaving zero and coming back — does
not move it, because a row has no table to leave at high water.  Beside
its rows the engine keeps a few bytes per stream vertex, not a copy of
the stream's NPVs: those are the index's.
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

#: tracemalloc bytes per stream vertex that dropping a registered engine
#: frees beyond its rows and its query side: 305 after the churn below
#: (the ``dominant`` table's entry, ``cover``/``uncovered``); 3,685 with a
#: copy of the stream's in-universe NPVs kept beside the counters.
BYTES_PER_VERTEX_BEYOND_ROWS_CEILING = 1024


def bytes_of_rows(engine: DominatedSetCoverJoin) -> float:
    """Traced bytes per dominant slot: what tracemalloc gets back when the
    engine's rows are dropped (which ends the engine's useful life; the
    collector is off, so nothing else is freed meanwhile), over stream
    vertices x live query vectors."""
    slots = sum(len(state.dominant) for state in engine._streams.values())
    slots *= engine.query_set.live_vector_count()
    before = tracemalloc.get_traced_memory()[0]
    for state in engine._streams.values():
        state.dominant.clear()
    return (before - tracemalloc.get_traced_memory()[0]) / slots


def bytes_freed(holder: list) -> int:
    """What tracemalloc gets back when the one object ``holder`` keeps
    is let go (the collector is off: only refcounts free)."""
    before = tracemalloc.get_traced_memory()[0]
    holder.clear()
    return before - tracemalloc.get_traced_memory()[0]


@pytest.fixture(scope="module")
def measured():
    """For a dsc engine over one 97-device proximity stream and 60
    five-edge queries extracted from it: bytes per slot at build and
    after churn, and what dropping the churned engine frees beyond its
    rows and beyond an unregistered engine's query side, per vertex."""
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
            vertices = len(churned._streams[0].dominant)
            after_churn = bytes_of_rows(churned)
            query_set = churned.query_set
            index.listeners.clear()
            holder = [churned]
            del churned
            registered = bytes_freed(holder)
            unregistered = bytes_freed([DominatedSetCoverJoin(query_set)])
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return at_build, after_churn, (registered - unregistered) / vertices


@pytest.fixture(scope="module")
def bytes_per_slot(measured):
    """(at build, after churn) bytes per dominant slot."""
    return measured[:2]


def test_bytes_per_dominant_slot(bytes_per_slot):
    at_build, after_churn = bytes_per_slot
    assert 0 < at_build <= BYTES_PER_SLOT_CEILING
    assert 0 < after_churn <= BYTES_PER_SLOT_CEILING


def test_churn_does_not_grow_the_rows(bytes_per_slot):
    at_build, after_churn = bytes_per_slot
    assert abs(after_churn - at_build) <= CHURN_DRIFT_CEILING * at_build


def test_dropping_the_engine_frees_its_rows_and_a_few_bytes_per_vertex(measured):
    """The engine holds counters, not vectors: after the churn, what it
    frees beyond its rows is a per-vertex constant, not a copy of the
    stream's NPVs."""
    beyond_rows = measured[2]
    assert 0 < beyond_rows <= BYTES_PER_VERTEX_BEYOND_ROWS_CEILING
