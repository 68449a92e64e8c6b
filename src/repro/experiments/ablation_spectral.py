"""Ablation A4 — spectral (GCoding-style) filtering vs NPV dominance.

The paper's related work rules GCoding out for streams: "the computation
of eigenvalue features is too costly for stream setting".  This ablation
measures that claim: candidate ratio and per-timestamp refresh cost of
the spectral filter vs our NPV/DSC pipeline on the same stream workload.
"""

from __future__ import annotations

from ..baselines.gcoding import GCodingStreamFilter
from .config import Scale, get_scale
from .harness import Mirrored, replay, run_stream_method
from .reporting import FigureResult
from .workloads import build_reality_stream_workload


def run(scale: Scale | None = None) -> FigureResult:
    """Execute the experiment at ``scale`` and return its rows."""
    scale = scale or get_scale()
    # The temporal-locality regime (few flips per timestamp) is where
    # incremental maintenance amortizes and full per-timestamp recompute
    # pays its true price; the reality-like workload provides it.
    workload = build_reality_stream_workload(scale, seed=91)
    result = FigureResult(
        "Ablation A4",
        "Spectral (GCoding-style) filter vs NPV: stream cost and candidates",
    )
    npv = run_stream_method(workload, "dsc", scale)
    spectral = replay(
        workload,
        Mirrored(GCodingStreamFilter(workload.queries, radius=2)),
        "gcoding",
        timestamps=scale.baseline_timestamp_cap,
    )
    for label, run_result in (("NPV-DSC (ours)", npv), ("spectral (GCoding-like)", spectral)):
        result.add(
            filter=label,
            avg_time_ms=run_result.mean_ms_per_timestamp,
            candidate_ratio=run_result.ratio_over(spectral.timestamps),
            timestamps=spectral.timestamps,
        )
    result.notes.append(
        "expected shape: under temporal locality the spectral refresh "
        "(eigendecompositions per vertex per timestamp) costs far more "
        "than incremental NPV maintenance — the related-work argument "
        "for not using GCoding on streams (on churn-heavy workloads "
        "vectorized eigensolves can locally win; see EXPERIMENTS.md)"
    )
    return result


def main() -> None:
    """Run at the environment-selected scale and print the table."""
    run().print()


if __name__ == "__main__":
    main()
