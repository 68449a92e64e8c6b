"""Ablation A8 — incremental vs recompute-per-timestamp GraphGrep.

Our Figure 15 shows GraphGrep's per-timestamp fingerprint recomputation
dominating its cost.  The paper never fixes this (GraphGrep is its strawman),
but the NNT insight — maintain the feature structure under the change,
don't rebuild it — applies to path fingerprints too: an edge change only
touches the paths through that edge.  This ablation measures the
maintained filter against the classic recompute on the same streams
(candidate sets are identical by construction; the fingerprints are
equal, property-tested).
"""

from __future__ import annotations

from ..baselines.graphgrep import GraphGrepStreamFilter
from ..baselines.graphgrep_incremental import IncrementalGraphGrep
from .config import Scale, get_scale
from .harness import Mirrored, replay
from .reporting import FigureResult
from .workloads import build_reality_stream_workload


def run(scale: Scale | None = None) -> FigureResult:
    """Execute the experiment at ``scale`` and return its rows."""
    scale = scale or get_scale()
    workload = build_reality_stream_workload(scale, seed=97)
    result = FigureResult(
        "Ablation A8",
        "GraphGrep maintenance: incremental path deltas vs full recompute",
    )
    # Both replay every timestamp: the recompute is not capped here.
    strategies = {
        "incremental (ours)": IncrementalGraphGrep(workload.queries),
        "full recompute (classic)": Mirrored(GraphGrepStreamFilter(workload.queries)),
    }
    for label, method in strategies.items():
        run_result = replay(workload, method, label)
        result.add(
            strategy=label,
            avg_time_ms=run_result.mean_ms_per_timestamp,
            candidate_ratio=run_result.candidate_ratio,
        )
    result.notes.append(
        "identical candidate sets by construction; incremental maintenance "
        "turns GraphGrep's cost churn-proportional, like the paper does "
        "for NNTs"
    )
    return result


def main() -> None:
    """Run at the environment-selected scale and print the table."""
    run().print()


if __name__ == "__main__":
    main()
