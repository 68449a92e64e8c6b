"""The sharded stream-monitoring coordinator.

:class:`ShardedMonitor` presents the :class:`~repro.core.StreamMonitor`
surface (``add_stream`` / ``apply`` / ``matches`` / ``events`` /
``stats``) while fanning the work out over N worker processes, each
owning a disjoint shard of the streams (consistent hash on stream id,
:mod:`repro.runtime.router`) with a private monitor over the shared
query set.  Because streams are independent (Definition 2.8), the union
of per-worker candidate sets *is* the global candidate set — sharding
changes where the work happens, never the answer.

**Backpressure.**  Worker inboxes are bounded queues
(``queue_capacity`` commands each).  A call that meets a full inbox
waits for the worker: no update is ever discarded or parked on the
coordinator side.  Overload is refused where a client can see it, at
the serving edge's bounded admission queue (``repro serve
--admission-capacity``).

**Consistency.**  A poll is a per-worker FIFO barrier: the poll command
is enqueued behind every previously accepted update, so the aggregated
answer reflects exactly the updates accepted before the poll — the same
semantics as calling ``matches()`` on a single monitor after the same
``apply`` calls.

**State of record.**  A worker's filter state is a pure function of
its streams' *current graphs* and the query set, so that is all the
coordinator keeps: one :class:`~repro.graph.LabeledGraph` per stream
(``add_stream`` stores a copy, every accepted ``apply`` is folded in
with the worker's own semantics, ``remove_stream`` forgets it) next to
the live query dict — O(sum of |E_i|), whatever the stream length.
``apply`` checks, sends, then folds.  The check
(:func:`~repro.graph.operations.check_batch`) reads the stream's graph
and writes nothing: a batch a worker would refuse raises
:class:`~repro.graph.GraphError` from ``apply`` with nothing sent and
nothing recorded.  The send is the control path's put, and the fold
runs once it returns: a worker respawned during the send is seeded
without the update and then receives it once.

**Recovery.**  A worker that dies — killed, OOMed, crashed hardware —
is respawned from the birth spec and sent the state of record: the net
query churn since birth, then ``add_stream(id, current graph)`` for
every stream it owns.  That is the state the lost worker would have
reached (no false negatives), at a cost independent of how long the
streams have run.  With ``auto_recover`` (default) this happens inside
the call that notices the death.  For the coordinator's own death,
:meth:`ShardedMonitor.checkpoint` writes the same state of record to a
directory and :meth:`ShardedMonitor.restore` reads it back through the
ordinary constructor + ``add_stream`` (:mod:`repro.core.checkpoint`).

**Payload rings** (``shm=True``).  Each shard gets a
coordinator->worker shared-memory ring (:mod:`repro.runtime.shm`):
``apply`` pickles the update once into the ring and the inbox queue
carries a fixed-size :class:`~repro.runtime.shm.RingRef` instead of the
payload — the ``runtime.bytes_pickled`` counter shows the difference.
Recovery never reads a ring (the state of record is the coordinator's
own graphs), so the loss guarantees are unchanged.

**Elastic resharding.**  :meth:`rescale` grows or shrinks the worker
pool live: every stream whose consistent-hash owner changes is
registered on its new shard from the coordinator's graph of it (every
accepted update is folded in; no worker round trip) and removed from
its old one.  The union-of-shards answer is preserved at every poll,
and a worker killed mid-rescale recovers exactly like any other death.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_module
from pathlib import Path
from typing import Any, Mapping

from .. import obs
from ..core.checkpoint import load_monitor, write_checkpoint
from ..core.metrics import Stopwatch
from ..core.monitor import CheckpointError, MatchEvent, diff_polls
from ..graph.labeled_graph import LabeledGraph
from ..graph.operations import (
    EdgeChange,
    GraphChangeOperation,
    apply_change,
    apply_operation,
    check_batch,
)
from ..join import check_engine_name
from ..join.base import Pair, QueryId, StreamId
from ..nnt.projection import DimensionScheme, PAPER_SCHEME
from .recovery import RecoveryLog
from .router import ShardRouter
from .shm import DEFAULT_RING_CAPACITY, ShmRing, cleanup_segments
from .worker import (
    CMD_ADD_STREAM,
    CMD_APPLY,
    CMD_DEREGISTER_QUERY,
    CMD_POLL,
    CMD_REGISTER_QUERY,
    CMD_REMOVE_STREAM,
    CMD_STATS,
    CMD_STOP,
    CMD_TRACE,
    WorkerSpec,
    worker_main,
)

#: Distinguishes shared-memory namespaces when one process hosts several
#: coordinators (pid alone is not enough); a plain counter, no entropy.
_INSTANCE_COUNTER = 0

#: How long a single response may take before we declare the runtime
#: wedged (workers answer polls in milliseconds; this only trips when
#: something is truly broken and the process is still technically alive).
RESPONSE_TIMEOUT_SECONDS = 300.0
_WAIT_SLICE_SECONDS = 0.2


class WorkerDied(RuntimeError):
    """A worker process exited without being asked to."""


class WorkerCrashed(RuntimeError):
    """A worker raised inside command processing (traceback attached)."""


class _WorkerHandle:
    """One live worker process and its queues."""

    __slots__ = ("shard_id", "process", "inbox", "outbox")

    def __init__(
        self,
        shard_id: int,
        process: multiprocessing.process.BaseProcess,
        inbox: Any,  # multiprocessing.Queue (bounded)
        outbox: Any,  # multiprocessing.Queue (unbounded, responses/errors)
    ) -> None:
        self.shard_id = shard_id
        self.process = process
        self.inbox = inbox
        self.outbox = outbox

    def is_alive(self) -> bool:
        return self.process.is_alive()

    def dispose(self) -> None:
        """Tear down a (possibly dead) worker's process and queues."""
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5)
        for channel in (self.inbox, self.outbox):
            channel.cancel_join_thread()
            channel.close()


class ShardedMonitor:
    """Multi-process drop-in for :class:`~repro.core.StreamMonitor`.

    Parameters mirror the single-process monitor, plus:

    num_workers:
        Worker process count (shard count).  Streams hash onto shards;
        with one worker the runtime degenerates to a supervised
        single-process monitor (still recoverable).
    queue_capacity:
        Bound on each worker inbox, in commands; a call that meets a
        full inbox waits for the worker.
    checkpoint_dir:
        Where ``checkpoint()`` writes its export; required for it.
    checkpoint_every:
        Auto-checkpoint after this many accepted change batches
        (0 = manual checkpoints only).
    auto_recover:
        Respawn dead workers transparently inside the call that notices
        (default).  ``False`` raises :class:`WorkerDied` instead.
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` where
        available (fast, inherits the query set) and the platform
        default elsewhere.
    shm:
        Ship apply payloads through per-shard shared-memory rings
        instead of the inbox queues (see the module docstring).
    ring_capacity:
        Payload bytes per shard ring (``shm=True`` only).  A full ring
        falls back to inline payloads — lossless, just counted on
        ``shm.ring_overflow``.
    flight_dir:
        Directory for per-shard flight-recorder journals
        (``flight-shard<N>.jsonl``, flushed per command so they survive
        SIGKILL) and crash/SIGUSR2 dumps.  ``None`` disables the
        recorder entirely.
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
        auto_recover: bool = True,
        start_method: str | None = None,
        shm: bool = False,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
        flight_dir: str | Path | None = None,
    ) -> None:
        global _INSTANCE_COUNTER
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
        if ring_capacity < 1:
            raise ValueError(f"ring_capacity must be >= 1, got {ring_capacity}")
        # One private copy per pattern, shared by the birth spec and the
        # live set: ``_seed`` tells a birth query from a re-registered
        # one by identity.
        queries = {query_id: graph.copy() for query_id, graph in queries.items()}
        self.spec = WorkerSpec(
            queries=queries,
            method=method.lower(),
            depth_limit=depth_limit,
            scheme=scheme,
            flight_dir=str(flight_dir) if flight_dir is not None else None,
        )
        self.num_workers = num_workers
        self.queue_capacity = queue_capacity
        self.checkpoint_every = checkpoint_every
        self.auto_recover = auto_recover
        self.shm = shm
        self.ring_capacity = ring_capacity
        if start_method is None and "fork" in multiprocessing.get_all_start_methods():
            start_method = "fork"
        self._ctx = multiprocessing.get_context(start_method)
        self.router = ShardRouter(num_workers)
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self.recovery_log = RecoveryLog()
        self._streams: dict[StreamId, int] = {}
        # The state of record: each stream's current graph — private to
        # this process; what crosses a queue is a copy, because queues
        # pickle later, on a feeder thread — and the *live* query set
        # (``self.spec.queries`` stays frozen at birth).
        self._graphs: dict[StreamId, LabeledGraph] = {}
        self._queries: dict[QueryId, LabeledGraph] = dict(queries)
        self._query_registrations = 0
        self._query_deregistrations = 0
        self._last_poll: set[Pair] = set()
        self._request_counter = 0
        self._accepted_batches = 0
        self._batches_since_checkpoint = 0
        self._closed = False
        _INSTANCE_COUNTER += 1
        self._shm_base = f"repro-{os.getpid()}m{_INSTANCE_COUNTER}"
        self._spawn_epoch = 0
        self._rings: dict[int, ShmRing] = {}
        self._rescales = 0
        self._last_rescale_seconds = 0.0
        self._rescaling = False
        # Name this process's track in exported traces before workers
        # fork (forked children overwrite the label with shard-<k>).
        obs.set_process_label("coordinator")
        self._workers: dict[int, _WorkerHandle] = {}
        try:
            for shard in range(num_workers):
                self._workers[shard] = self._spawn(shard, self.spec)
        except BaseException:
            # A failed spawn never returns the object, so nobody else
            # can stop the workers and unlink the rings already made.
            self.close()
            raise

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _shm_spec(self, shard_id: int, spec: WorkerSpec) -> WorkerSpec:
        """Provision a fresh payload ring for one spawn.

        Per-spawn epochs keep a respawned worker's ring name disjoint
        from its predecessor's, whose ring is unlinked here.
        """
        if not self.shm:
            return spec
        self._spawn_epoch += 1
        old_ring = self._rings.pop(shard_id, None)
        if old_ring is not None:
            old_ring.close(unlink=True)
        ring = ShmRing(
            f"{self._shm_base}-ring{shard_id}e{self._spawn_epoch}", self.ring_capacity
        )
        self._rings[shard_id] = ring
        return spec._replace(ring=ring.name)

    def _spawn(self, shard_id: int, spec: WorkerSpec) -> _WorkerHandle:
        spec = self._shm_spec(shard_id, spec)
        inbox = self._ctx.Queue(maxsize=self.queue_capacity)
        outbox = self._ctx.Queue()
        process = self._ctx.Process(
            target=worker_main,
            args=(shard_id, spec, inbox, outbox),
            name=f"repro-shard-{shard_id}",
            daemon=True,
        )
        process.start()
        return _WorkerHandle(shard_id, process, inbox, outbox)

    def close(self) -> None:
        """Stop every worker and release their queues (idempotent).

        With ``shm=True`` this is also the leak boundary: the
        coordinator unlinks the rings it created, and a final prefix
        sweep is the net under that.
        """
        if self._closed:
            return
        self._closed = True
        for handle in self._workers.values():
            if handle.is_alive():
                try:
                    self._put_blocking(handle, (CMD_STOP, self._next_request()))
                    self._await_response(handle, CMD_STOP)
                except (WorkerDied, WorkerCrashed, TimeoutError):
                    pass
            handle.process.join(timeout=5)
            handle.dispose()
        for ring in self._rings.values():
            ring.close(unlink=True)
        self._rings.clear()
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
    # stream lifecycle
    # ------------------------------------------------------------------
    def add_stream(self, stream_id: StreamId, initial: LabeledGraph | None = None) -> None:
        """Start monitoring a stream on its hash-assigned shard."""
        self._ensure_open()
        if stream_id in self._streams:
            raise ValueError(f"stream {stream_id!r} is already monitored")
        shard = self.router.shard_for(stream_id)
        graph = initial.copy() if initial is not None else LabeledGraph()
        # The inbox pickles later, on its feeder thread: it gets a copy of its own.
        self._submit(shard, (CMD_ADD_STREAM, stream_id, graph.copy()))
        self._streams[stream_id] = shard
        self._graphs[stream_id] = graph

    def remove_stream(self, stream_id: StreamId) -> None:
        """Stop monitoring a stream and free its shard-local state."""
        self._ensure_open()
        # Delivered before it is forgotten: a respawn inside the submit
        # still registers the stream the command then removes.
        self._submit(self._streams[stream_id], (CMD_REMOVE_STREAM, stream_id))
        del self._streams[stream_id]
        del self._graphs[stream_id]
        self._last_poll = {pair for pair in self._last_poll if pair[0] != stream_id}

    def stream_ids(self) -> list[StreamId]:
        """Ids of the currently monitored streams."""
        return list(self._streams)

    def graph(self, stream_id: StreamId) -> LabeledGraph:
        """The stream's current graph: the initial graph with every
        accepted update folded in (live — treat as read-only)."""
        return self._graphs[stream_id]

    def query_ids(self) -> list[QueryId]:
        """Ids of the currently monitored patterns."""
        return list(self._queries)

    # ------------------------------------------------------------------
    # query lifecycle
    # ------------------------------------------------------------------
    def register_query(self, query_id: QueryId, query: LabeledGraph) -> None:
        """Register a pattern live, with no false-negative window.

        The command rides the control path to every shard: each
        worker's FIFO inbox guarantees its registration snapshot
        reflects every update accepted before this call returns, and a
        worker SIGKILLed mid-registration is respawned with the live
        query set — the query lands fully present or, if the call
        itself never completed, fully absent.
        """
        self._ensure_open()
        if query_id in self._queries:
            raise ValueError(f"query {query_id!r} is already monitored")
        # Recorded and enqueued (the inboxes pickle it later, on their
        # feeder threads) as one copy nothing here mutates.
        query = query.copy()
        with obs.span("runtime.register_query", query=str(query_id)):
            for shard in sorted(self._workers):
                self._submit(shard, (CMD_REGISTER_QUERY, query_id, query))
        self._queries[query_id] = query
        self._query_registrations += 1

    def deregister_query(self, query_id: QueryId) -> None:
        """Drop a pattern on every shard, retiring its engine rows and
        purging its pending per-query poll state."""
        self._ensure_open()
        if query_id not in self._queries:
            raise KeyError(f"query {query_id!r} is not monitored")
        with obs.span("runtime.deregister_query", query=str(query_id)):
            for shard in sorted(self._workers):
                self._submit(shard, (CMD_DEREGISTER_QUERY, query_id))
        del self._queries[query_id]
        self._query_deregistrations += 1
        self._last_poll = {pair for pair in self._last_poll if pair[1] != query_id}

    def shard_of(self, stream_id: StreamId) -> int:
        """Which shard owns a registered stream."""
        return self._streams[stream_id]

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def apply(
        self, stream_id: StreamId, update: GraphChangeOperation | EdgeChange
    ) -> None:
        """Route one edge change / timestamp batch to the owning shard,
        waiting for room when its inbox is full.

        A batch the stream's current graph refuses (duplicate insert,
        missing delete, unlabeled new vertex) raises
        :class:`~repro.graph.GraphError`: nothing of it is applied,
        sent or recorded.  A cadence checkpoint that fails after the
        batch was sent raises :class:`~repro.core.monitor.CheckpointError`.
        """
        self._ensure_open()
        if stream_id not in self._streams:
            raise KeyError(f"stream {stream_id!r} is not monitored")
        shard = self._streams[stream_id]
        with obs.span("runtime.submit", shard=shard):
            self._submit_update(shard, stream_id, update)
        self._accepted_batches += 1
        self._batches_since_checkpoint += 1
        if 0 < self.checkpoint_every <= self._batches_since_checkpoint:
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

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def _next_request(self) -> int:
        self._request_counter += 1
        return self._request_counter

    def _handle_for(self, shard: int) -> _WorkerHandle:
        handle = self._workers[shard]
        if not handle.is_alive():
            if not self.auto_recover:
                raise WorkerDied(f"shard {shard} worker died (auto_recover off)")
            self.recover(shard)
            handle = self._workers[shard]
        return handle

    def _put_blocking(self, handle: _WorkerHandle, command: tuple) -> None:
        """Enqueue, waiting out a full inbox; detect death while waiting."""
        while True:
            try:
                handle.inbox.put(command, timeout=_WAIT_SLICE_SECONDS)
                return
            except queue_module.Full:
                if not handle.is_alive():
                    raise WorkerDied(
                        f"shard {handle.shard_id} worker died with a full inbox"
                    ) from None

    def _submit(self, shard: int, command: tuple) -> None:
        """Put one command on a shard's inbox, waiting out a full one.

        Callers update the state of record only once this returns, so a
        respawn in here rebuilds the worker *without* the command's
        effect and the command then lands on it exactly once.  The wire
        form is built per attempt: a respawned worker has a new ring."""
        for attempt in (0, 1):
            handle = self._handle_for(shard)
            try:
                self._put_blocking(handle, self._wire(shard, command))
                return
            except WorkerDied:
                if not self.auto_recover or attempt:
                    raise
                # _handle_for will respawn on the retry.

    def _wire(self, shard: int, command: tuple) -> tuple:
        """The stamped wire form of one command.

        With ``shm=True`` an apply's payload is pickled once into the
        shard's ring and the queue carries a fixed-size
        :class:`~repro.runtime.shm.RingRef`; a full ring falls back to
        the inline payload (lossless, counted on ``shm.ring_overflow``).
        ``runtime.bytes_pickled`` measures what actually crosses the
        queue for an apply either way — the quantity the shm bench gates on.
        """
        if command[0] != CMD_APPLY:
            return obs.stamp_envelope(command)
        wire = command
        ring = self._rings.get(shard) if self.shm else None
        if ring is not None:
            payload = pickle.dumps(command[2])
            ref = ring.push(payload)
            if ref is not None:
                wire = (command[0], command[1], ref)
                if obs.enabled():
                    obs.counter("shm.ring_bytes").inc(len(payload))
            elif obs.enabled():
                obs.counter("shm.ring_overflow").inc()
        envelope = obs.stamp_envelope(wire)
        if obs.enabled():
            obs.counter("runtime.bytes_pickled").inc(len(pickle.dumps(envelope)))
        return envelope

    def _submit_update(
        self,
        shard: int,
        stream_id: StreamId,
        update: GraphChangeOperation | EdgeChange,
    ) -> None:
        """Data traffic: check the update against the stream's graph,
        send it, then fold it in (:meth:`_submit`'s contract)."""
        graph = self._graphs[stream_id]
        check_batch(graph, update)
        self._submit(shard, (CMD_APPLY, stream_id, update))
        if isinstance(update, EdgeChange):
            apply_change(graph, update)
        else:
            apply_operation(graph, update)

    # ------------------------------------------------------------------
    # request/response
    # ------------------------------------------------------------------
    def _await_response(self, handle: _WorkerHandle, kind: str) -> tuple:
        waited = 0.0
        while True:
            try:
                response = handle.outbox.get(timeout=_WAIT_SLICE_SECONDS)
            except queue_module.Empty:
                waited += _WAIT_SLICE_SECONDS
                if not handle.is_alive():
                    raise WorkerDied(
                        f"shard {handle.shard_id} worker died before answering {kind}"
                    ) from None
                if waited >= RESPONSE_TIMEOUT_SECONDS:
                    raise TimeoutError(
                        f"shard {handle.shard_id} did not answer {kind} within "
                        f"{RESPONSE_TIMEOUT_SECONDS}s"
                    ) from None
                continue
            if response[0] == "error":
                raise WorkerCrashed(
                    f"shard {handle.shard_id} worker crashed:\n{response[3]}"
                )
            if response[0] == kind:
                return response
            # Stale response from a pre-recovery request on a reused
            # handle cannot happen (queues are per-spawn); anything else
            # is a protocol bug worth failing loudly on.
            raise RuntimeError(f"unexpected worker response {response[:2]!r}")

    def _request(self, shard: int, kind: str, *extra: object) -> tuple:
        """Send one control request and await its tagged response,
        recovering once if the worker dies in between."""
        for attempt in (0, 1):
            handle = self._handle_for(shard)
            request_id = self._next_request()
            try:
                self._put_blocking(
                    handle, obs.stamp_envelope((kind, request_id, *extra))
                )
                return self._await_response(handle, kind)
            except WorkerDied:
                if not self.auto_recover or attempt:
                    raise
                self.recover(shard)
        raise AssertionError("unreachable")

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def matches(self) -> set[Pair]:
        """The global candidate set: the union of every worker's
        *possible joinable* pairs, consistent with all accepted updates
        (poll = FIFO barrier per worker)."""
        self._ensure_open()
        with obs.span("runtime.matches"):
            aggregated: set[Pair] = set()
            for shard in self._workers:
                response = self._request(shard, CMD_POLL)
                aggregated.update(response[3])
        return aggregated

    def is_match(self, stream_id: StreamId, query_id: QueryId) -> bool:
        """Does one pair currently pass the filter?"""
        return (stream_id, query_id) in self.matches()

    def events(self) -> list[MatchEvent]:
        """Appeared/vanished transitions since the previous
        :meth:`events` call — identical semantics and format to
        :meth:`repro.core.StreamMonitor.events`."""
        current = self.matches()
        events = diff_polls(self._last_poll, current)
        self._last_poll = current
        return events

    def trace_spans(self) -> list[obs.SpanRecord]:
        """Every collected span across the fleet: the coordinator's own
        ring plus each worker's (shipped over :data:`CMD_TRACE`).  All
        records share the ``perf_counter`` timebase, and worker-side
        root spans carry the coordinator-side parent ids stamped on the
        command envelopes — the raw material of ``repro trace``."""
        self._ensure_open()
        records: list[obs.SpanRecord] = list(obs.spans())
        for shard in self._workers:
            response = self._request(shard, CMD_TRACE)
            records.extend(response[3])
        return records

    def obs_summary(self) -> dict[str, Any]:
        """The fleet-merged observability summary: every worker's
        registry plus the coordinator's own (``stats()["merged_obs"]``)."""
        return self.stats()["merged_obs"]

    def inbox_depths(self) -> dict[int, int]:
        """Best-effort pending-command count per worker inbox (``qsize``
        is approximate by nature; -1 where the platform lacks it)."""
        depths: dict[int, int] = {}
        for shard, handle in self._workers.items():
            try:
                depths[shard] = handle.inbox.qsize()
            except (NotImplementedError, OSError):
                depths[shard] = -1
        return depths

    def stats(self) -> dict[str, Any]:
        """Coordinator + per-worker statistics: routing and backpressure
        counters, the recovery log, each worker's monitor stats, and the
        merged observability registries (``merged_obs``: every worker's
        instruments plus the coordinator's own, combined with
        :func:`repro.obs.merge_summaries`)."""
        self._ensure_open()
        workers: dict[int, dict[str, Any]] = {}
        for shard in self._workers:
            response = self._request(shard, CMD_STATS)
            payload = dict(response[3])
            payload["pid"] = self._workers[shard].process.pid
            payload["alive"] = self._workers[shard].is_alive()
            workers[shard] = payload
        shard_streams: dict[int, int] = {shard: 0 for shard in self._workers}
        for shard in self._streams.values():
            shard_streams[shard] += 1
        depths = self.inbox_depths()
        if obs.enabled():
            # -1 marks a platform without qsize(), not a depth.
            obs.gauge("runtime.inbox_depth").set(max(0, *depths.values()))
        shm_section = None
        if self.shm:
            shm_section = {
                "rings": len(self._rings),
                "ring_capacity": self.ring_capacity,
            }
        return {
            "num_workers": self.num_workers,
            "num_streams": len(self._streams),
            "num_queries": len(self._queries),
            "method": self.spec.method,
            "queries": {
                "registered": len(self._queries),
                "registrations": self._query_registrations,
                "deregistrations": self._query_deregistrations,
                "groups": max(
                    (
                        payload.get("monitor", {}).get("num_query_groups", 0)
                        for payload in workers.values()
                    ),
                    default=0,
                ),
            },
            "shm": shm_section,
            "rescale": {
                "count": self._rescales,
                "last_seconds": self._last_rescale_seconds,
                "active": self._rescaling,
            },
            "backpressure": {
                "queue_capacity": self.queue_capacity,
                "accepted_batches": self._accepted_batches,
                # Always 0: kept only because benchmarks/e2e/lane.py reads them.
                "dropped": 0,
                "spilled": 0,
            },
            "recovery": self.recovery_log.summary(),
            "streams_per_shard": shard_streams,
            "inbox_depths": depths,
            "workers": workers,
            "merged_obs": obs.merge_summaries(
                [payload.get("obs", {}) for payload in workers.values()]
                + [obs.get_registry().summary()]
            ),
        }

    # ------------------------------------------------------------------
    # elastic resharding
    # ------------------------------------------------------------------
    def rescale(self, num_workers: int) -> dict[str, Any]:
        """Grow or shrink the worker pool to ``num_workers``, live.

        Each stream whose consistent-hash owner changes is registered
        on its new owner from the coordinator's graph of it — which holds
        every accepted update, so no worker is asked for anything — and
        removed from its old one; shrinking stops the excess shards
        only after their streams have moved out.  Polls issued after
        ``rescale`` returns therefore see exactly the union they would
        have seen without it: no false negatives, and a worker killed
        mid-rescale recovers like any other death.

        Returns ``{"from", "to", "moved_streams", "seconds"}``.
        """
        self._ensure_open()
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        source = self.num_workers
        if num_workers == source:
            return {"from": source, "to": source, "moved_streams": 0, "seconds": 0.0}
        timer = Stopwatch()
        self._rescaling = True
        if obs.enabled():
            obs.gauge("runtime.rescale.active").set(1)
        try:
            with timer, obs.span(
                "runtime.rescale", source=source, target=num_workers
            ):
                moved = self._rescale_locked(num_workers)
        finally:
            self._rescaling = False
            if obs.enabled():
                obs.gauge("runtime.rescale.active").set(0)
        self._rescales += 1
        self._last_rescale_seconds = timer.total
        if obs.enabled():
            obs.gauge("runtime.rescale.last_seconds").set(timer.total)
            obs.gauge("runtime.workers").set(num_workers)
        return {
            "from": source,
            "to": num_workers,
            "moved_streams": moved,
            "seconds": timer.total,
        }

    def _seed(self, shard: int) -> int:
        """Send a worker just spawned from the frozen birth spec the
        state of record: the net query churn since birth, then the
        current graph of every stream it owns.  Returns the command
        count — a function of the live state, not of the history.

        The commands go out bare (the worker opens fresh traces, not
        children of spans that ended before it was born) and straight
        onto the new inbox: if this worker dies too, the next call to
        notice seeds its successor from scratch.
        """
        birth = self.spec.queries
        live = self._queries
        commands: list[tuple] = [
            (CMD_DEREGISTER_QUERY, query_id)
            for query_id in birth
            if live.get(query_id) is not birth[query_id]
        ]
        commands += [
            (CMD_REGISTER_QUERY, query_id, graph)
            for query_id, graph in live.items()
            if birth.get(query_id) is not graph
        ]
        commands += [
            (CMD_ADD_STREAM, stream_id, self._graphs[stream_id].copy())
            for stream_id, owner in self._streams.items()
            if owner == shard
        ]
        for command in commands:
            self._put_blocking(self._workers[shard], command)
        return len(commands)

    def _rescale_locked(self, target: int) -> int:
        """The rescale body: spawn, move, install, retire.  Returns the
        number of streams that changed owner."""
        source = self.num_workers
        for shard in range(source, target):  # grow: new empty shards
            self._workers[shard] = self._spawn(shard, self.spec)
            # Built from the birth spec and owning no stream yet: this
            # brings it up to the live query set.
            self._seed(shard)
        router = ShardRouter(target)
        moved = 0
        # Deterministic move order (sorted by stream id) so workers and
        # tests see the same handoff sequence on every run.
        for stream_id in sorted(self._streams, key=str):
            destination = router.shard_for(stream_id)
            origin = self._streams[stream_id]
            if destination == origin:
                continue
            # The origin keeps owning the stream until both commands are
            # out: a respawn of either shard in between is seeded right.
            self._submit(
                destination, (CMD_ADD_STREAM, stream_id, self._graphs[stream_id].copy())
            )
            self._submit(origin, (CMD_REMOVE_STREAM, stream_id))
            self._streams[stream_id] = destination
            moved += 1
            if obs.enabled():
                obs.counter("runtime.streams_moved").inc()
        self.router = router
        self.num_workers = target
        for shard in range(target, source):  # shrink: retire empty shards
            handle = self._workers.pop(shard)
            if handle.is_alive():
                try:
                    self._put_blocking(handle, (CMD_STOP, self._next_request()))
                    self._await_response(handle, CMD_STOP)
                except (WorkerDied, WorkerCrashed, TimeoutError):
                    pass
            handle.dispose()
            ring = self._rings.pop(shard, None)
            if ring is not None:
                ring.close(unlink=True)
        return moved

    # ------------------------------------------------------------------
    # checkpointing and recovery
    # ------------------------------------------------------------------
    def checkpoint(self) -> dict[str, Any]:
        """Export the state of record — the live query set and every
        stream's current graph, updates a worker has not read yet
        included — to ``checkpoint_dir``, replacing the previous export
        atomically; no worker is asked anything.  Returns its
        :func:`~repro.core.checkpoint.checkpoint_stats`."""
        self._ensure_open()
        if self.checkpoint_dir is None:
            raise RuntimeError("checkpoint() requires checkpoint_dir")
        self._batches_since_checkpoint = 0  # a failed export waits a full cadence too
        spec = self.spec
        with obs.span("runtime.checkpoint"):
            export = write_checkpoint(
                self.checkpoint_dir,
                self._queries,
                self._graphs,
                spec.method,
                spec.depth_limit,
                spec.scheme,
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
        """Respawn one shard's worker from the birth spec and bring it
        to the state of record (:meth:`_seed`)."""
        self._ensure_open()
        self._workers[shard].dispose()
        self._workers[shard] = self._spawn(shard, self.spec)
        self.recovery_log.recoveries += 1
        self.recovery_log.replayed_commands += self._seed(shard)

    def recover_dead(self) -> list[int]:
        """Respawn every dead worker; returns the recovered shard ids."""
        recovered = []
        for shard, handle in self._workers.items():
            if not handle.is_alive():
                self.recover(shard)
                recovered.append(shard)
        return recovered

    def worker_pids(self) -> dict[int, int | None]:
        """Shard id -> worker process pid (for supervision and tests)."""
        return {shard: handle.process.pid for shard, handle in self._workers.items()}
