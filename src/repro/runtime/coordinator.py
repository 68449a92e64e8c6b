"""The sharded stream-monitoring coordinator: the production driver.

:class:`ShardedMonitor` presents the :class:`~repro.core.StreamMonitor`
surface over N worker processes, each owning a disjoint shard of the
streams with a private monitor over the shared query set.  Streams are
independent (Definition 2.8), so the union of the workers' candidate
sets *is* the global one.

What the coordinator knows and decides — routing, each stream's current
graph, the live query set, the respawn seed, the rescale plan and the
send-then-fold rule — is a :class:`~repro.runtime.fleet.Fleet`.  This
module is the IO around it: worker processes behind bounded inboxes (a
full one makes the caller wait; a poll is a per-worker FIFO barrier),
optional per-shard payload rings (``shm=True``, :mod:`repro.runtime.shm`;
recovery never reads one), and the primitives ``_submit`` (put; a worker
found dead is respawned and seeded, :func:`~repro.runtime.fleet.on_live`),
``_request`` (put, then await the tagged response) and ``_retire`` (stop
a shard, unlink its ring).
"""

from __future__ import annotations

import itertools
import os
import pickle
from pathlib import Path
from typing import Any, Callable, Mapping

from .. import obs
from ..core.checkpoint import load_monitor, write_checkpoint
from ..core.metrics import Stopwatch
from ..core.monitor import CheckpointError, MatchEvent
from ..graph.labeled_graph import LabeledGraph
from ..graph.operations import EdgeChange, GraphChangeOperation
from ..join import check_engine_name
from ..join.base import Pair, QueryId, StreamId
from ..nnt.projection import DimensionScheme, PAPER_SCHEME
from .fleet import Fleet, RecoveryLog, on_live
from .shm import DEFAULT_RING_CAPACITY, ShmRing, cleanup_segments
from .worker import CMD_APPLY, CMD_POLL, CMD_STATS, CMD_TRACE, WorkerProcess, WorkerSpec

#: Distinguishes shared-memory namespaces when one process hosts several
#: coordinators (pid alone is not enough); a plain counter, no entropy.
_INSTANCE_COUNTER = 0


class ShardedMonitor:
    """Multi-process drop-in for :class:`~repro.core.StreamMonitor`.

    Parameters mirror the single-process monitor, plus:

    num_workers:
        Worker process (shard) count; one worker is a supervised,
        recoverable single-process monitor.
    queue_capacity:
        Bound on each worker inbox, in commands; a full one makes the
        caller wait.
    checkpoint_dir:
        Where ``checkpoint()`` writes its export; required for it.
    checkpoint_every:
        Auto-checkpoint after this many accepted batches (0 = manual).
    shm:
        Ship apply payloads through per-shard shared-memory rings of
        :data:`~repro.runtime.shm.DEFAULT_RING_CAPACITY` bytes; a full ring
        falls back to inline payloads, counted on ``shm.ring_overflow``.
    flight_dir:
        Directory for per-shard flight-recorder journals
        (``flight-shard<N>.jsonl``, flushed per command) and crash or
        SIGUSR2 dumps; ``None`` disables the recorder.
    """

    def __init__(
        self,
        queries: Mapping[QueryId, LabeledGraph],
        method: str = "dsc",
        depth_limit: int = 3,
        scheme: DimensionScheme = PAPER_SCHEME,
        num_workers: int = 2,
        queue_capacity: int = 128,
        checkpoint_dir: str | Path | None = None,
        checkpoint_every: int = 0,
        shm: bool = False,
        flight_dir: str | Path | None = None,
    ) -> None:
        global _INSTANCE_COUNTER
        if not hasattr(os, "fork"):
            raise RuntimeError("ShardedMonitor forks its workers: it needs a platform with os.fork")
        check_engine_name(method)  # refused here, not in a worker; imports no engine
        if depth_limit < 1:
            raise ValueError(f"depth_limit must be >= 1, got {depth_limit}")
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if queue_capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1, got {queue_capacity}")
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if checkpoint_every and checkpoint_dir is None:
            raise ValueError("checkpoint_every requires checkpoint_dir")
        # One private copy per pattern, shared by the birth spec and the
        # fleet's live set (Fleet.seed tells them apart by identity).
        queries = {query_id: graph.copy() for query_id, graph in queries.items()}
        self.spec = WorkerSpec(
            queries=queries,
            method=method.lower(),
            depth_limit=depth_limit,
            scheme=scheme,
            flight_dir=str(flight_dir) if flight_dir is not None else None,
        )
        self.queue_capacity = queue_capacity
        self.checkpoint_every = checkpoint_every
        self.shm = shm
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self.recovery_log = RecoveryLog()
        self.fleet = Fleet(queries, num_workers)
        self._request_ids = itertools.count(1)
        self._closed = False
        _INSTANCE_COUNTER += 1
        self._shm_base = f"repro-{os.getpid()}m{_INSTANCE_COUNTER}"
        self._spawn_epoch = 0
        self._rings: dict[int, ShmRing] = {}
        self._last_rescale_seconds = 0.0
        # Name this process's track in exported traces before workers
        # fork (forked children overwrite the label with shard-<k>).
        obs.set_process_label("coordinator")
        self._workers: dict[int, WorkerProcess] = {}
        try:
            for shard in range(num_workers):
                self._spawn(shard)
        except BaseException:
            # A failed spawn never returns the object, so nobody else
            # can stop the workers and unlink the rings already made.
            self.close()
            raise

    @property
    def num_workers(self) -> int:
        """The worker pool size."""
        return self.fleet.shards

    # ------------------------------------------------------------------
    # the primitives: spawn, retire, deliver, request
    # ------------------------------------------------------------------
    def _spawn(self, shard: int) -> int:
        """Start ``shard``'s worker from the birth spec (with a fresh ring
        under ``shm=True``) and put it the fleet's seed, bare (it opens
        fresh traces); returns the seed's length.  If this worker dies
        too, the next call to notice seeds its successor."""
        spec = self.spec
        if self.shm:
            self._spawn_epoch += 1
            ring = ShmRing(
                f"{self._shm_base}-ring{shard}e{self._spawn_epoch}", DEFAULT_RING_CAPACITY
            )
            self._rings[shard] = ring
            spec = spec._replace(ring=ring.name)
        worker = self._workers[shard] = WorkerProcess(shard, spec, self.queue_capacity)
        seed = self.fleet.seed(shard)
        for command in seed:
            worker.put(command)
        return len(seed)

    def _retire(self, shard: int) -> None:
        """Stop ``shard``'s worker (asking first if it runs) and unlink its
        ring: the one teardown of ``close()``, rescale and :meth:`recover`."""
        worker = self._workers.pop(shard, None)
        if worker is not None:
            worker.stop()
        ring = self._rings.pop(shard, None)
        if ring is not None:
            ring.close(unlink=True)

    def _on_live(self, shard: int, action: Callable[[WorkerProcess], Any]) -> Any:
        """``action(worker)`` on ``shard``'s worker, respawned by
        :meth:`recover` when found dead (:func:`~repro.runtime.fleet.on_live`)."""
        return on_live(shard, action, self._live_worker, self.recover)

    def _live_worker(self, shard: int) -> WorkerProcess | None:
        worker = self._workers.get(shard)
        return worker if worker is not None and worker.is_alive() else None

    def _submit(self, shard: int, command: tuple) -> None:
        """The delivery primitive: put one command on a shard's inbox.  The
        fleet folds it only once this returns, so a respawn in here is
        seeded without it and then gets it once (wire form per attempt:
        a respawn has a new ring).  ``runtime.bytes_pickled`` counts the
        pickled envelopes of apply traffic."""

        def put(worker: WorkerProcess) -> None:
            size = worker.put(self._wire(shard, command))
            if command[0] == CMD_APPLY and obs.enabled():
                obs.counter("runtime.bytes_pickled").inc(size)

        self._on_live(shard, put)

    def _request(self, shard: int, kind: str, *extra: object) -> tuple:
        """The request/response primitive: send one control request and
        await its tagged response, on a respawn if the worker dies."""

        def ask(worker: WorkerProcess) -> tuple:
            worker.put(obs.stamp_envelope((kind, next(self._request_ids), *extra)))
            return worker.receive(kind)

        return self._on_live(shard, ask)

    def _wire(self, shard: int, command: tuple) -> tuple:
        """The stamped wire form of one command: an apply's payload goes
        into the shard's ring when there is one with room."""
        ring = self._rings.get(shard) if self.shm else None
        if command[0] == CMD_APPLY and ring is not None:
            payload = pickle.dumps(command[2])
            ref = ring.push(payload)
            if ref is not None:
                command = (command[0], command[1], ref)
                if obs.enabled():
                    obs.counter("shm.ring_bytes").inc(len(payload))
            elif obs.enabled():
                obs.counter("shm.ring_overflow").inc()
        return obs.stamp_envelope(command)

    def close(self) -> None:
        """Stop every worker and unlink every ring (idempotent); a final
        prefix sweep is the net under the rings."""
        if self._closed:
            return
        self._closed = True
        for shard in sorted(self._workers.keys() | self._rings.keys()):
            self._retire(shard)
        if self.shm:
            cleanup_segments(self._shm_base)

    def __enter__(self) -> "ShardedMonitor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("ShardedMonitor is closed")

    # ------------------------------------------------------------------
    # the monitor surface
    # ------------------------------------------------------------------
    def add_stream(self, stream_id: StreamId, initial: LabeledGraph | None = None) -> None:
        """Start monitoring a stream on its hash-assigned shard."""
        self._ensure_open()
        self.fleet.add_stream(self._submit, stream_id, initial)

    def remove_stream(self, stream_id: StreamId) -> None:
        """Stop monitoring a stream and free its shard-local state."""
        self._ensure_open()
        self.fleet.remove_stream(self._submit, stream_id)

    def stream_ids(self) -> list[StreamId]:
        """Ids of the currently monitored streams."""
        return list(self.fleet.streams)

    def graph(self, stream_id: StreamId) -> LabeledGraph:
        """The stream's current graph: the initial graph with every
        accepted update folded in (live — treat as read-only)."""
        return self.fleet.graphs[stream_id]

    def query_ids(self) -> list[QueryId]:
        """Ids of the currently monitored patterns."""
        return list(self.fleet.queries)

    def register_query(self, query_id: QueryId, query: LabeledGraph) -> None:
        """Register a pattern live on every shard's FIFO inbox, so each
        snapshot reflects every update accepted before the call; a worker
        killed mid-registration is respawned with the live query set."""
        self._ensure_open()
        with obs.span("runtime.register_query", query=str(query_id)):
            self.fleet.register_query(self._submit, query_id, query)

    def deregister_query(self, query_id: QueryId) -> None:
        """Drop a pattern on every shard, retiring its engine rows and
        purging its pending per-query poll state."""
        self._ensure_open()
        with obs.span("runtime.deregister_query", query=str(query_id)):
            self.fleet.deregister_query(self._submit, query_id)

    def shard_of(self, stream_id: StreamId) -> int:
        """Which shard owns a registered stream."""
        return self.fleet.streams[stream_id]

    def apply(
        self, stream_id: StreamId, update: GraphChangeOperation | EdgeChange
    ) -> None:
        """Route one change or batch to the owning shard.  A batch the
        stream's graph refuses raises :class:`~repro.graph.GraphError`
        with nothing sent or recorded; a cadence checkpoint that fails
        after the send raises :class:`~repro.core.monitor.CheckpointError`."""
        self._ensure_open()
        fleet = self.fleet
        if stream_id not in fleet.streams:
            raise KeyError(f"stream {stream_id!r} is not monitored")
        with obs.span("runtime.submit", shard=fleet.streams[stream_id]):
            fleet.apply(self._submit, stream_id, update)
        if 0 < self.checkpoint_every <= fleet.since_checkpoint:
            try:
                self.checkpoint()
            except (OSError, ValueError) as exc:
                raise CheckpointError(f"{type(exc).__name__}: {exc}") from exc

    def apply_many(
        self, updates: Mapping[StreamId, GraphChangeOperation | EdgeChange]
    ) -> None:
        """Apply one timestamp's updates across streams."""
        for stream_id, update in updates.items():
            self.apply(stream_id, update)

    def matches(self) -> set[Pair]:
        """The global candidate set: the union of every worker's
        *possible joinable* pairs, consistent with all accepted updates
        (poll = FIFO barrier per worker)."""
        self._ensure_open()
        with obs.span("runtime.matches"):
            aggregated: set[Pair] = set()
            for shard in range(self.fleet.shards):
                aggregated.update(self._request(shard, CMD_POLL)[3])
        return aggregated

    def is_match(self, stream_id: StreamId, query_id: QueryId) -> bool:
        """Does one pair currently pass the filter?"""
        return (stream_id, query_id) in self.matches()

    def events(self) -> list[MatchEvent]:
        """Appeared/vanished transitions since the previous
        :meth:`events` call — identical semantics and format to
        :meth:`repro.core.StreamMonitor.events`."""
        return self.fleet.events(self.matches())

    def trace_spans(self) -> list[obs.SpanRecord]:
        """The coordinator's span ring plus each worker's: one
        ``perf_counter`` timebase, worker root spans parented on the ids
        stamped on the command envelopes (``repro trace`` reads them)."""
        self._ensure_open()
        records: list[obs.SpanRecord] = list(obs.spans())
        for shard in range(self.fleet.shards):
            records.extend(self._request(shard, CMD_TRACE)[3])
        return records

    def obs_summary(self) -> dict[str, Any]:
        """The fleet-merged observability summary: every worker's
        registry plus the coordinator's own (``stats()["merged_obs"]``)."""
        return self.stats()["merged_obs"]

    def inbox_depths(self) -> dict[int, int]:
        """Commands each worker has not yet taken off its inbox: commands
        sent minus credits received (exact)."""
        return {shard: worker.depth() for shard, worker in sorted(self._workers.items())}

    def stats(self) -> dict[str, Any]:
        """Fleet counters, the recovery log, each worker's stats, and
        ``merged_obs``: every worker's registry plus the coordinator's."""
        self._ensure_open()
        fleet = self.fleet
        workers: dict[int, dict[str, Any]] = {}
        for shard in range(fleet.shards):
            workers[shard] = self._request(shard, CMD_STATS)[3]
            worker = self._workers[shard]
            workers[shard].update(pid=worker.pid, alive=worker.is_alive())
        depths = self.inbox_depths()
        if obs.enabled():
            obs.gauge("runtime.inbox_depth").set(max(depths.values()))
        return {
            "num_workers": fleet.shards,
            "num_streams": len(fleet.streams),
            "num_queries": len(fleet.queries),
            "method": self.spec.method,
            "queries": {
                "registered": len(fleet.queries),
                "registrations": fleet.registrations,
                "deregistrations": fleet.deregistrations,
                "groups": max(
                    (w.get("monitor", {}).get("num_query_groups", 0) for w in workers.values()),
                    default=0,
                ),
            },
            "shm": {"rings": len(self._rings), "ring_capacity": DEFAULT_RING_CAPACITY}
            if self.shm
            else None,
            "rescale": {
                "count": fleet.rescales,
                "last_seconds": self._last_rescale_seconds,
            },
            "backpressure": {
                "queue_capacity": self.queue_capacity,
                "accepted_batches": fleet.accepted_batches,
                # Always 0: kept only because benchmarks/e2e/lane.py reads them.
                "dropped": 0,
                "spilled": 0,
            },
            "recovery": self.recovery_log.summary(),
            "streams_per_shard": fleet.streams_per_shard(),
            "inbox_depths": depths,
            "workers": workers,
            "merged_obs": obs.merge_summaries(
                [payload.get("obs", {}) for payload in workers.values()]
                + [obs.get_registry().summary()]
            ),
        }

    def rescale(self, num_workers: int) -> dict[str, Any]:
        """Grow or shrink the pool live (:meth:`Fleet.rescale
        <repro.runtime.fleet.Fleet.rescale>`): moved streams are added
        from the coordinator's graphs, no worker is asked for anything,
        and polls see the same union before and after.  Returns
        ``{"from", "to", "moved_streams", "seconds"}``."""
        self._ensure_open()
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        source = self.num_workers
        if self.fleet.settled_at(num_workers):
            return {"from": source, "to": source, "moved_streams": 0, "seconds": 0.0}
        timer = Stopwatch()
        with timer, obs.span("runtime.rescale", source=source, target=num_workers):
            moved = self.fleet.rescale(num_workers, self._spawn, self._submit, self._retire)
        self._last_rescale_seconds = timer.total
        if obs.enabled():
            obs.gauge("runtime.rescale.last_seconds").set(timer.total)
            obs.gauge("runtime.workers").set(num_workers)
            if moved:
                obs.counter("runtime.streams_moved").inc(moved)
        return {"from": source, "to": num_workers, "moved_streams": moved, "seconds": timer.total}

    def checkpoint(self) -> dict[str, Any]:
        """Export the state of record (live queries, current graphs) to
        ``checkpoint_dir``, replacing the previous export atomically; no
        worker is asked anything.  Returns its ``checkpoint_stats``."""
        self._ensure_open()
        if self.checkpoint_dir is None:
            raise RuntimeError("checkpoint() requires checkpoint_dir")
        self.fleet.since_checkpoint = 0  # a failed export waits a full cadence too
        fleet, spec = self.fleet, self.spec
        with obs.span("runtime.checkpoint"):
            export = write_checkpoint(
                self.checkpoint_dir, fleet.queries, fleet.graphs,
                spec.method, spec.depth_limit, spec.scheme,
            )
        self.recovery_log.checkpoints += 1
        return export

    @classmethod
    def restore(cls, directory: str | Path, **runtime_options: Any) -> "ShardedMonitor":
        """A fleet rebuilt from any monitor's checkpoint directory: its
        query set, method, depth and scheme, ``runtime_options`` for the
        other constructor parameters, every stream via :meth:`add_stream`."""
        return load_monitor(directory, cls, **runtime_options)

    def recover(self, shard: int) -> None:
        """Respawn one shard's worker from the birth spec and seed it."""
        self._ensure_open()
        self._retire(shard)
        self.recovery_log.recoveries += 1
        self.recovery_log.replayed_commands += self._spawn(shard)

    def recover_dead(self) -> list[int]:
        """Respawn every dead worker; returns the recovered shard ids."""
        workers = self._workers
        dead = [s for s in range(self.fleet.shards) if s not in workers or not workers[s].is_alive()]
        for shard in dead:
            self.recover(shard)
        return dead

    def worker_pids(self) -> dict[int, int]:
        """Shard id -> worker process pid (for supervision and tests)."""
        return {shard: worker.pid for shard, worker in sorted(self._workers.items())}
