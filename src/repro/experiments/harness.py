"""Experiment harness: replay workloads under every method and measure
the paper's two quantities — candidate ratio and average per-timestamp
processing cost.

Every figure and ablation measures through the two loops here, so each
method's timed region is stated once:

:func:`replay` (streams)
    Register each stream's initial graph (timed as set-up), then at
    every timestamp apply each stream's batch and poll the candidate
    pairs once.  The apply and the poll are timed apart; their sum is
    the per-timestamp cost.
:func:`measure_static` (static databases)
    Build the filter (timed), then sum its candidates over each query
    set (timed per set).

Stream methods
--------------
A stream method is anything with ``add_stream(stream_id, graph)``,
``apply(stream_id, batch)`` and ``matches()``:

``nl`` / ``dsc`` / ``skyline`` / ``matrix``
    Our NPV filter with the corresponding join engine, driven through
    :class:`repro.core.StreamMonitor` (incremental NNT maintenance,
    coalesced delta delivery).
``ggrep`` / ``gindex1`` / ``gindex2``
    GraphGrep and gIndex behind :class:`Mirrored`: mirror graphs take
    the batches and every poll recomputes the filter's features
    (fingerprints; re-mined fragments, the paper's dominant cost).
    These expensive methods honour the scale profile's
    ``baseline_timestamp_cap``.

Static methods
--------------
``npv`` / ``ggrep`` / ``gindex1`` / ``gindex2`` over a
:class:`~repro.experiments.workloads.StaticWorkload`; every static
filter answers a query through ``candidates_for(query)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from ..baselines.gindex import GIndex, GIndexConfig, GIndexStreamFilter
from ..baselines.graphgrep import GraphGrepFilter, GraphGrepStreamFilter
from ..core.database import GraphDatabase
from ..core.metrics import candidate_ratio
from ..core.monitor import StreamMonitor
from ..graph.labeled_graph import LabeledGraph
from ..graph.operations import GraphChangeOperation, apply_operation
from .config import Scale
from .workloads import StaticWorkload, StreamWorkload

ENGINE_METHODS = ("nl", "dsc", "skyline", "matrix")
STREAM_METHODS = ENGINE_METHODS + ("ggrep", "gindex1", "gindex2")
STATIC_METHODS = ("npv", "ggrep", "gindex1", "gindex2")


@dataclass(frozen=True)
class StreamRunResult:
    """One method's measurements over one stream workload."""

    method: str
    workload: str
    num_queries: int
    num_streams: int
    timestamps: int
    candidates_per_timestamp: tuple[int, ...]
    # The per-timestamp cost split into applying the batches (NNT
    # maintenance for the engines, independent of the query count) and
    # polling the answer (the join, the part the paper's scalability
    # figures exercise; a recompute baseline's refresh).
    mean_maintain_ms_per_timestamp: float
    mean_join_ms_per_timestamp: float

    @property
    def mean_ms_per_timestamp(self) -> float:
        """Apply + poll, per timestamp."""
        return self.mean_maintain_ms_per_timestamp + self.mean_join_ms_per_timestamp

    @property
    def candidate_ratio(self) -> float:
        """Candidates over all (stream, query) pairs of every timestamp."""
        return self.ratio_over(self.timestamps)

    def ratio_over(self, first_n: int) -> float:
        """Candidate ratio over the first ``first_n`` timestamps only —
        lets methods measured over different horizons (the capped gIndex
        runs) be compared on a common window."""
        window = self.candidates_per_timestamp[:first_n]
        pairs = len(window) * self.num_streams * self.num_queries
        return sum(window) / pairs if pairs else 0.0


@dataclass(frozen=True)
class StaticRunResult:
    """One method's measurements over one static query set."""

    method: str
    workload: str
    query_size: int
    candidate_ratio: float
    mean_query_ms: float
    build_seconds: float


class Mirrored:
    """A recompute baseline (GraphGrep, GCoding, gIndex stream filters)
    as a stream method: one mirror graph per stream takes the batches,
    and every poll hands the filter all mirrors to recompute from
    (``refresh``) before reading its candidate pairs."""

    def __init__(self, stream_filter: Any) -> None:
        self.filter = stream_filter
        self.graphs: dict = {}

    def add_stream(self, stream_id: Any, initial: LabeledGraph) -> None:
        """Start a mirror of the stream's initial graph."""
        self.graphs[stream_id] = initial.copy()

    def apply(self, stream_id: Any, operation: GraphChangeOperation) -> None:
        """Apply one timestamp's batch to the stream's mirror."""
        apply_operation(self.graphs[stream_id], operation)

    def matches(self) -> set[tuple]:
        """Recompute the filter from every mirror; its candidate pairs."""
        self.filter.refresh(self.graphs)
        return self.filter.candidates()


def _ms_per(seconds: float, count: int) -> float:
    return seconds / count * 1000 if count else 0.0


def replay(
    workload: StreamWorkload,
    method: Any,
    name: str,
    timestamps: int | None = None,
    on_poll: Callable[[set], object] | None = None,
) -> StreamRunResult:
    """Replay ``workload`` through the stream ``method``: register every
    stream's initial graph, then per timestamp apply each stream's batch
    and poll ``method.matches()`` once, timing both.

    ``timestamps`` caps the horizon (default: every timestamp all
    streams have); ``on_poll`` sees each poll's pairs, untimed.
    """
    for stream_id, stream in workload.streams.items():
        method.add_stream(stream_id, stream.initial)

    horizon = min(len(stream.operations) for stream in workload.streams.values())
    if timestamps is not None:
        horizon = min(horizon, timestamps)
    per_timestamp: list[int] = []
    apply_seconds = poll_seconds = 0.0
    for t in range(horizon):
        tick_start = time.perf_counter()
        for stream_id, stream in workload.streams.items():
            method.apply(stream_id, stream.operations[t])
        applied = time.perf_counter()
        pairs = method.matches()
        polled = time.perf_counter()
        per_timestamp.append(len(pairs))
        apply_seconds += applied - tick_start
        poll_seconds += polled - applied
        if on_poll is not None:
            on_poll(pairs)
    return StreamRunResult(
        method=name,
        workload=workload.name,
        num_queries=len(workload.queries),
        num_streams=len(workload.streams),
        timestamps=horizon,
        candidates_per_timestamp=tuple(per_timestamp),
        mean_maintain_ms_per_timestamp=_ms_per(apply_seconds, horizon),
        mean_join_ms_per_timestamp=_ms_per(poll_seconds, horizon),
    )


def _stream_gindex_config(method: str, scale: Scale) -> GIndexConfig:
    if method == "gindex1":
        return GIndexConfig(
            max_fragment_edges=scale.gindex1_stream_max_edges,
            min_support_ratio=0.1,
        )
    return GIndexConfig(max_fragment_edges=3, min_support_absolute=1)


def run_stream_method(
    workload: StreamWorkload, method: str, scale: Scale, workers: int | None = None
) -> StreamRunResult:
    """:func:`replay` a stream workload under one named method.

    ``workers`` > 1 runs the engine methods through the sharded
    multi-process runtime (:class:`repro.runtime.ShardedMonitor`) instead
    of an in-process monitor; streams shard by consistent hash, so the
    candidate counts are identical either way.  The baselines are
    single-process only and ignore the flag.
    """
    if method in ENGINE_METHODS:
        if workers is not None and workers > 1:
            from ..runtime import ShardedMonitor

            with ShardedMonitor(workload.queries, method=method, num_workers=workers) as sharded:
                return replay(workload, sharded, f"{method}@{workers}w")
        return replay(workload, StreamMonitor(workload.queries, method=method), method)
    # GraphGrep's per-timestamp fingerprint refresh is cheap on sparse
    # graphs but explodes on dense ones (vertex-simple path enumeration);
    # it shares gIndex's timestamp cap.
    if method == "ggrep":
        baseline = Mirrored(GraphGrepStreamFilter(workload.queries))
    elif method in ("gindex1", "gindex2"):
        baseline = Mirrored(GIndexStreamFilter(workload.queries, _stream_gindex_config(method, scale)))
    else:
        raise ValueError(f"unknown stream method {method!r}; expected {STREAM_METHODS}")
    return replay(workload, baseline, method, timestamps=scale.baseline_timestamp_cap)


# ----------------------------------------------------------------------
# static experiments
# ----------------------------------------------------------------------
def measure_static(
    build: Callable[[], Any],
    query_sets: Mapping[int, Sequence[LabeledGraph]],
    num_graphs: int,
    method: str = "",
    workload: str = "",
) -> tuple[Any, list[StaticRunResult]]:
    """Build a static filter (timed), then sum ``candidates_for`` over
    each query set (timed per set); returns the filter and one row per
    set, in query-size order."""
    build_start = time.perf_counter()
    index = build()
    build_seconds = time.perf_counter() - build_start
    results: list[StaticRunResult] = []
    for query_size, queries in sorted(query_sets.items()):
        total_candidates = 0
        query_start = time.perf_counter()
        for query in queries:
            total_candidates += len(index.candidates_for(query))
        query_seconds = time.perf_counter() - query_start
        results.append(
            StaticRunResult(
                method=method,
                workload=workload,
                query_size=query_size,
                candidate_ratio=candidate_ratio(total_candidates, num_graphs, len(queries)),
                mean_query_ms=_ms_per(query_seconds, len(queries)),
                build_seconds=build_seconds,
            )
        )
    return index, results


def build_static_filter(workload: StaticWorkload, method: str, scale: Scale, depth_limit: int = 3):
    """Build one static filter over the workload's graph DB."""
    if method == "npv":
        return GraphDatabase(workload.graphs, depth_limit=depth_limit)
    if method == "ggrep":
        return GraphGrepFilter(workload.graphs)
    if method == "gindex1":
        config = GIndexConfig(
            max_fragment_edges=scale.gindex1_static_max_edges, min_support_ratio=0.1
        )
        return GIndex(workload.graphs, config)
    if method == "gindex2":
        return GIndex(workload.graphs, GIndexConfig(max_fragment_edges=3, min_support_absolute=1))
    raise ValueError(f"unknown static method {method!r}; expected {STATIC_METHODS}")


def run_static_method(
    workload: StaticWorkload, method: str, scale: Scale, depth_limit: int = 3
) -> list[StaticRunResult]:
    """Candidate ratio + per-query time of one method over every Q_m set."""
    _, results = measure_static(
        lambda: build_static_filter(workload, method, scale, depth_limit),
        workload.query_sets,
        len(workload.graphs),
        method,
        workload.name,
    )
    return results
