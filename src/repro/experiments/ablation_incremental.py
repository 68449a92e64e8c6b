"""Ablation A3 — incremental NNT maintenance vs full rebuild.

The paper's Section III argues that NNTs must be maintained
incrementally (Procedures Insert-Edge / Delete-Edge) rather than rebuilt
from scratch whenever the stream graph changes.  This ablation replays
the same synthetic stream twice — once through :class:`NNTIndex.apply`
and once rebuilding every NNT each timestamp — and compares the
per-timestamp maintenance cost.
"""

from __future__ import annotations

import time

import random

from ..datasets.ggen import GGenConfig, GGen
from ..datasets.stream_gen import inflate_graph, synthesize_streams
from ..graph.operations import apply_operation
from ..nnt.trails import project_graph
from ..nnt.incremental import NNTIndex
from .config import Scale, get_scale
from .reporting import FigureResult
from .workloads import StreamWorkload


def _temporal_locality_workload(scale: Scale, seed: int = 83) -> StreamWorkload:
    """A stream honouring Section II's temporal-locality premise: only a
    few base edges toggle per timestamp (p1=p2=3% over the base edge set).
    The dense all-pairs workload rewrites half the graph every timestamp,
    where a rebuild is legitimately competitive — the incremental
    procedures target exactly the low-churn regime."""
    config = GGenConfig(
        num_graphs=scale.syn_num_streams,
        num_seeds=8,
        seed_size=4.0,
        graph_size=float(scale.syn_base_size * 2),
        num_vertex_labels=scale.syn_num_labels,
        num_edge_labels=1,
        seed=seed,
    )
    generator = GGen(config)
    rng = random.Random(seed + 1)
    bases = [
        inflate_graph(base, 1.5, rng, generator.vertex_labels, generator.edge_labels)
        for base in generator.generate()
    ]
    streams = synthesize_streams(
        bases, 0.03, 0.03, scale.syn_timestamps, seed=seed + 2, all_pairs=False
    )
    return StreamWorkload(
        name="temporal-locality", queries={}, streams=dict(enumerate(streams))
    )


def run(scale: Scale | None = None) -> FigureResult:
    """Execute the experiment at ``scale`` and return its rows."""
    scale = scale or get_scale()
    workload = _temporal_locality_workload(scale)
    result = FigureResult(
        "Ablation A3",
        "NNT maintenance: incremental (Figs 4-5) vs per-timestamp rebuild",
    )
    timestamps = min(len(stream.operations) for stream in workload.streams.values())

    # Incremental maintenance through the index.
    indexes = {
        stream_id: NNTIndex(stream.initial, depth_limit=3)
        for stream_id, stream in workload.streams.items()
    }
    start = time.perf_counter()
    for t in range(timestamps):
        for stream_id, stream in workload.streams.items():
            indexes[stream_id].apply(stream.operations[t])
    incremental_seconds = time.perf_counter() - start
    churn = sum(
        index.stats["tree_nodes_added"] + index.stats["tree_nodes_removed"]
        for index in indexes.values()
    )
    result.add(
        strategy="incremental",
        avg_time_ms=incremental_seconds / timestamps * 1000,
        tree_nodes_touched=churn,
    )

    # Full rebuild: apply changes to a mirror graph, re-project everything.
    mirrors = {
        stream_id: stream.initial.copy() for stream_id, stream in workload.streams.items()
    }
    rebuilt_nodes = 0
    start = time.perf_counter()
    for t in range(timestamps):
        for stream_id, stream in workload.streams.items():
            apply_operation(mirrors[stream_id], stream.operations[t])
            vectors = project_graph(mirrors[stream_id], 3)
            rebuilt_nodes += sum(sum(vector.values()) for vector in vectors.values())
    rebuild_seconds = time.perf_counter() - start
    result.add(
        strategy="full rebuild",
        avg_time_ms=rebuild_seconds / timestamps * 1000,
        tree_nodes_touched=rebuilt_nodes,
    )
    result.notes.append(
        "expected shape: incremental maintenance touches a small fraction "
        "of the tree nodes a rebuild recreates each timestamp"
    )
    return result


def main() -> None:
    """Run at the environment-selected scale and print the table."""
    run().print()


if __name__ == "__main__":
    main()
