"""Public API: the streaming monitor, its metrics and its checkpoint.

The offline tools are imported from their own modules, so a monitor
process never loads them: :mod:`repro.core.database` (static
filter-and-verify search) and :mod:`repro.core.verify` (the precision
probe).
"""

from .metrics import (
    Confusion,
    RunningStats,
    Stopwatch,
    candidate_ratio,
    compare_with_truth,
)
from .checkpoint import checkpoint_stats, load_monitor, save_monitor
from .monitor import MatchEvent, StreamMonitor, diff_polls

__all__ = [
    "Confusion",
    "MatchEvent",
    "RunningStats",
    "Stopwatch",
    "StreamMonitor",
    "candidate_ratio",
    "checkpoint_stats",
    "compare_with_truth",
    "diff_polls",
    "load_monitor",
    "save_monitor",
]
