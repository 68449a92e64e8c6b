"""Sharded multi-process stream-monitoring runtime.

The paper's filter answers a timestamp in filter time; this package
makes the *system* keep up with stream rates by scaling across cores:
:class:`ShardedMonitor` shards registered streams over N worker
processes (consistent hash on stream id — streams are independent by
Definition 2.8, so sharding preserves the answer), routes change
batches to bounded worker inboxes (a full one makes the caller wait),
aggregates per-worker candidate sets into one global answer at poll
time, and keeps each stream's current graph so a killed worker respawns
with no false negatives.

See ``docs/runtime.md`` for the architecture, routing, backpressure and
recovery protocols; :mod:`repro.runtime.worker` for the command
protocol; :mod:`repro.core.checkpoint` for the export a restart reads.

This is the only package in the tree allowed to touch process/thread
machinery, and :mod:`repro.runtime.shm` is the only module allowed to
touch ``multiprocessing.shared_memory`` (``CONFINED_IMPORTS`` in
``tests/fitness/test_invariants.py``): the filtering core stays deterministic and single-threaded,
and all parallelism lives behind this facade.
"""

from .coordinator import ShardedMonitor
from .fleet import RecoveryLog
from .router import ShardRouter, stable_hash
from .shm import RingReader, RingRef, ShmError, ShmRing, cleanup_segments
from .worker import ShardState, WorkerCrashed, WorkerDied, WorkerSpec

__all__ = [
    "RecoveryLog",
    "RingReader",
    "RingRef",
    "ShardRouter",
    "ShardState",
    "ShardedMonitor",
    "ShmError",
    "ShmRing",
    "WorkerCrashed",
    "WorkerDied",
    "WorkerSpec",
    "cleanup_segments",
    "stable_hash",
]
