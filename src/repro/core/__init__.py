"""Public API: the streaming monitor, static database, and metrics."""

from .database import GraphDatabase
from .metrics import (
    Confusion,
    RunningStats,
    Stopwatch,
    candidate_ratio,
    compare_with_truth,
)
from .checkpoint import checkpoint_stats, load_monitor, save_monitor
from .monitor import MatchEvent, StreamMonitor, diff_polls
from .verify import CachingVerifier
from .window import SlidingWindowMonitor

__all__ = [
    "CachingVerifier",
    "Confusion",
    "GraphDatabase",
    "MatchEvent",
    "RunningStats",
    "SlidingWindowMonitor",
    "Stopwatch",
    "StreamMonitor",
    "candidate_ratio",
    "checkpoint_stats",
    "compare_with_truth",
    "diff_polls",
    "load_monitor",
    "save_monitor",
]
