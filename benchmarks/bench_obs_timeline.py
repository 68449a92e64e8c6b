"""Micro-benchmarks: what the metrics timeline sampler costs.

The serving layer runs a 1 Hz :class:`~repro.obs.timeline.TimelineSampler` next
to live traffic (``ServeConfig.timeline_interval``), and ``repro top``
polls one per frame.  The claim pinned here: with the sampler attached
at its production cadence, the stream-efficiency replay (the Figure 15
workload, shared with ``bench_obs_overhead``) slows down by **under
5%** — sampling cost is one registry summary walk per tick plus sparse
delta dictionaries, amortized over a second of monitoring work.

``maybe_sample`` is also measured on its fast path (the not-due-yet
check a poll loop hits between ticks), which must stay in the tens of
nanoseconds.

The pytest-benchmark pair at the bottom records absolute replay numbers
with and without the sampler (archived by CI as
``BENCH_obs_timeline.json`` next to the other micro-benchmarks).
"""

from __future__ import annotations

import time

from repro import obs
from repro.obs import Registry
from repro.obs.timeline import Timeline, TimelineSampler

from benchmarks.bench_obs_overhead import build_workload, replay

SAMPLER_INTERVAL = 1.0  # the ServeConfig.timeline_interval default


def replay_with_sampler(queries, streams, interval: float = SAMPLER_INTERVAL):
    """The measured unit: the shared replay with a sampler polled after
    every batch, the way ``run_top`` and the serve sampler task do."""
    timeline = Timeline()
    sampler = TimelineSampler(
        timeline, lambda: obs.get_registry().summary(), interval=interval
    )
    from repro.core.monitor import StreamMonitor

    monitor = StreamMonitor(queries, method="dsc")
    for stream_id, stream in streams.items():
        monitor.add_stream(stream_id, stream.initial)
    horizon = min(len(s.operations) for s in streams.values())
    for t in range(horizon):
        for stream_id, stream in streams.items():
            monitor.apply(stream_id, stream.operations[t])
        monitor.matches()
        monitor.events()
        sampler.maybe_sample()
    return timeline


def _best_of(fn, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _per_sample_cost(timeline: Timeline, rounds: int = 50) -> float:
    """Seconds per sampler tick against the fully-populated post-replay
    registry (summary walk + sparse delta encoding), averaged over many
    ticks so one scheduler hiccup cannot dominate."""
    started = time.perf_counter()
    for i in range(rounds):
        timeline.sample(obs.get_registry().summary(), t=float(i))
    return (time.perf_counter() - started) / rounds


def test_sampler_overhead_under_five_percent():
    """At the production 1 Hz cadence the sampler runs once per second
    of replay, so its cost fraction is per-tick seconds / interval —
    the same sites-times-unit-cost argument ``bench_obs_overhead``
    makes for the disabled fast path (a direct A/B of two sub-second
    replays is dominated by run-to-run noise at the 5% scale)."""
    queries, streams = build_workload()
    previous = obs.set_registry(Registry())
    obs.clear_spans()
    obs.enable()
    try:
        replay_seconds = _best_of(lambda: replay(queries, streams))
        per_tick = _per_sample_cost(Timeline())
    finally:
        obs.set_registry(previous)
        obs.clear_spans()
    fraction = per_tick / SAMPLER_INTERVAL
    print(
        f"\ntimeline sampler: {per_tick * 1e6:.0f}us per tick at"
        f" {SAMPLER_INTERVAL:.0f}s cadence = {fraction:.3%} of wall-clock"
        f" (replay ran {replay_seconds * 1e3:.1f}ms)"
    )
    assert fraction < 0.05, (
        f"1 Hz timeline sampling costs {fraction:.2%} of wall-clock"
    )


def test_maybe_sample_fast_path_is_nanoseconds():
    """Between ticks, maybe_sample is one clock read and a compare."""
    previous = obs.set_registry(Registry())
    obs.enable()
    try:
        sampler = TimelineSampler(
            Timeline(), lambda: obs.get_registry().summary(), interval=3600.0
        )
        sampler.force()  # cadence armed: every later call is not-due
        samples = 100_000
        started = time.perf_counter()
        for _ in range(samples):
            sampler.maybe_sample()
        per_call = (time.perf_counter() - started) / samples
    finally:
        obs.set_registry(previous)
    print(f"\nmaybe_sample fast path: {per_call * 1e9:.0f}ns per call")
    assert per_call < 5e-6, f"fast path costs {per_call * 1e6:.2f}us per call"


def test_bench_replay_without_sampler(benchmark):
    queries, streams = build_workload()
    previous = obs.set_registry(Registry())
    obs.enable()
    try:
        benchmark(replay, queries, streams)
    finally:
        obs.set_registry(previous)
        obs.clear_spans()


def test_bench_replay_with_sampler(benchmark):
    queries, streams = build_workload()
    previous = obs.set_registry(Registry())
    obs.enable()
    try:
        benchmark(replay_with_sampler, queries, streams)
    finally:
        obs.set_registry(previous)
        obs.clear_spans()
