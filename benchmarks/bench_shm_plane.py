"""Shared-memory payload-ring benchmark: queue bytes per apply.

The point of ``ShardedMonitor(shm=True)`` is not raw wall-clock on a
2-core CI box (where fork time-slicing drowns the signal) — it is the
*bytes pickled onto the coordinator->worker queue per apply*.  With the
shm ring, an apply envelope carries a fixed-size ``RingRef`` descriptor
instead of the pickled change-batch payload, so the queue cost stops
scaling with batch density.  That is a deterministic counter
(``runtime.bytes_pickled``), identical run-to-run for a seeded
workload, which makes it gateable on shared CI runners where timing is
not.

``test_shm_bytes_pickled_gate`` pins the claim: on a dense fig16-style
workload the shm ring ships at least 5x fewer bytes per apply than
the pickled-payload queue path (~5.6x since changes pickle as their
fields, ~10x before; the measured bytes land in ``BENCH_shm.json``'s
``extra_info`` for trending).
"""

import os
import random

import pytest

from repro import obs
from repro.datasets.ggen import generate_graph_set
from repro.datasets.queries import make_query_set
from repro.datasets.stream_gen import DENSE, synthesize_stream
from repro.runtime import ShardedMonitor

NUM_STREAMS = 6
NUM_QUERIES = 4
TIMESTAMPS = 8
WORKERS = 2

_cache = {}


def _workload():
    """(queries, streams) — dense ggen churn, built once per session."""
    if "workload" not in _cache:
        rng = random.Random(97)
        bases = generate_graph_set(
            NUM_STREAMS, graph_size=20.0, num_vertex_labels=4, seed=97
        )
        queries = {
            f"q{i}": query
            for i, query in enumerate(make_query_set(bases, 5, NUM_QUERIES, seed=98))
        }
        p_appear, p_disappear = DENSE
        streams = {
            f"s{i}": synthesize_stream(
                base, p_appear, p_disappear, TIMESTAMPS, rng, all_pairs=True, name=f"s{i}"
            )
            for i, base in enumerate(bases)
        }
        _cache["workload"] = (queries, streams)
    return _cache["workload"]


def _replay(shm: bool):
    """One full replay through a 2-worker matrix fleet; returns the
    final candidate set (so benchmark configurations prove equal work)."""
    queries, streams = _workload()
    monitor = ShardedMonitor(
        queries, method="matrix", num_workers=WORKERS, shm=shm
    )
    try:
        for stream_id, stream in streams.items():
            monitor.add_stream(stream_id, stream.initial)
        horizon = min(len(stream.operations) for stream in streams.values())
        for t in range(horizon):
            for stream_id, stream in streams.items():
                monitor.apply(stream_id, stream.operations[t])
        return monitor.matches()
    finally:
        monitor.close()


def _bytes_per_apply(shm: bool) -> float:
    """Queue bytes per apply for one configuration, measured on a fresh
    registry (cached — the counter is deterministic for the seeded
    workload, so one measurement serves gate and benchmark alike)."""
    key = ("bytes", shm)
    if key not in _cache:
        was_enabled = obs.enabled()
        previous = obs.set_registry(obs.Registry())
        obs.enable()
        try:
            _replay(shm)
            summary = obs.get_registry().summary()
            entry = summary.get("runtime.bytes_pickled")
            total = float(entry["value"]) if entry else 0.0
        finally:
            obs.set_registry(previous)
            if not was_enabled:
                obs.disable()
        applies = NUM_STREAMS * TIMESTAMPS
        _cache[key] = total / applies
    return _cache[key]


@pytest.mark.parametrize("shm", (False, True), ids=("queue", "shm"))
def test_apply_queue_bytes(benchmark, shm):
    benchmark.extra_info["shm"] = shm
    benchmark.extra_info["workers"] = WORKERS
    benchmark.extra_info["num_streams"] = NUM_STREAMS
    benchmark.extra_info["timestamps"] = TIMESTAMPS
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["bytes_per_apply"] = _bytes_per_apply(shm)
    benchmark.pedantic(_replay, args=(shm,), rounds=2, warmup_rounds=1)


def test_shm_bytes_pickled_gate():
    """The headline claim: >= 5x fewer queue bytes per apply with the
    shm ring (counter-based — deterministic on a 2-core runner)."""
    queue_bytes = _bytes_per_apply(shm=False)
    shm_bytes = _bytes_per_apply(shm=True)
    assert shm_bytes > 0, "shm replay pickled nothing — counter wiring broken"
    ratio = queue_bytes / shm_bytes
    assert ratio >= 5.0, (
        f"shm ring ships only {ratio:.1f}x fewer queue bytes per apply "
        f"({queue_bytes:.0f} -> {shm_bytes:.0f}); gate is 5x"
    )


def test_answers_identical_queue_vs_shm():
    """The benchmark must compare equal work: both wire formats end at
    the same candidate set."""
    assert _replay(shm=False) == _replay(shm=True)
