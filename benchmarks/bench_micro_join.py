"""Micro-benchmarks: the four join engines' per-poll cost.

Each timed round touches one stream — deletes one of its edges and
re-inserts it, so the NNT index splices twice and the engine takes the
resulting NPV deltas — then calls ``candidates()`` over every
(stream, query) pair.  The touch keeps cached verdicts from answering
the poll.  Every leg runs with telemetry off (``obs.disable()``, restored
afterwards), so the numbers move with the engines' verdict cost, not with
what ``JoinEngine.candidates`` records.

    PYTHONPATH=src python -m pytest benchmarks/bench_micro_join.py
"""

import random

import pytest

from repro import obs
from repro.datasets import generate_graph_set
from repro.join import ENGINES, QuerySet, StreamListenerAdapter, make_engine
from repro.nnt import NNTIndex


def _setup(num_queries: int = 12, num_streams: int = 8):
    graphs = generate_graph_set(
        num_queries + num_streams,
        num_seeds=6,
        seed_size=5,
        graph_size=12,
        num_vertex_labels=4,
        seed=23,
    )
    queries = {f"q{i}": graphs[i] for i in range(num_queries)}
    query_set = QuerySet(queries, depth_limit=3)
    indexes = {
        sid: NNTIndex(graphs[num_queries + sid], depth_limit=3)
        for sid in range(num_streams)
    }
    return query_set, indexes


@pytest.fixture
def obs_off():
    was_enabled = obs.enabled()
    obs.disable()
    yield
    if was_enabled:
        obs.enable()


@pytest.mark.parametrize("name", list(ENGINES))
def test_touch_and_poll(benchmark, obs_off, name: str):
    query_set, indexes = _setup()
    engine = make_engine(name, query_set)
    rng = random.Random(5)
    for sid, index in indexes.items():
        engine.register_stream(sid, index.npvs)
        index.add_listener(StreamListenerAdapter(engine, sid))

    def touch_and_poll():
        sid = rng.choice(list(indexes))
        index = indexes[sid]
        edges = list(index.graph.edges())
        if edges:
            u, v, label = rng.choice(edges)
            u_label = index.graph.vertex_label(u)
            v_label = index.graph.vertex_label(v)
            index.delete_edge(u, v)
            index.insert_edge(u, v, label, u_label, v_label)
        return engine.candidates()

    benchmark(touch_and_poll)
