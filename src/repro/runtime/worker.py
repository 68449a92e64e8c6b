"""The shard worker: one process, one private :class:`StreamMonitor`.

A worker owns a disjoint subset of the registered streams (chosen by the
coordinator's :class:`~repro.runtime.router.ShardRouter`) over the full
shared query set.  It drains its bounded inbox in FIFO order — which is
what makes a poll a consistent barrier: the poll command is enqueued
after every update it must observe — and pushes tagged responses on its
outbox.  All answering state is the monitor's.

Workers never share *mutable* memory with the coordinator: commands and
responses are picklable values (graphs, change operations, frozen
candidate sets), so a worker can be SIGKILLed at any instant and
respawned from the coordinator's graphs of record without corrupting
anyone else.  The optional payload ring (:mod:`repro.runtime.shm`)
keeps that property — it is single-producer (the coordinator) /
single-consumer (this worker), the worker owns no segment, and nothing
recovery needs lives in it.  :class:`WorkerProcess` is the coordinator's
end of one worker: start, put, receive, stop.
"""

from __future__ import annotations

import pickle
import queue as queue_module
import traceback
from pathlib import Path
from typing import Any, Mapping, NamedTuple

from .. import obs
from ..core.monitor import StreamMonitor
from ..graph.labeled_graph import LabeledGraph
from ..nnt.projection import PAPER_SCHEME, DimensionScheme
from .shm import RingReader, RingRef

#: Inbox commands a worker understands (first tuple element).
CMD_ADD_STREAM = "add_stream"
CMD_REMOVE_STREAM = "remove_stream"
CMD_APPLY = "apply"
CMD_REGISTER_QUERY = "register_query"
CMD_DEREGISTER_QUERY = "deregister_query"
CMD_POLL = "poll"
CMD_STATS = "stats"
CMD_TRACE = "trace"
CMD_STOP = "stop"

#: Commands that mutate shard state (the ones the flight recorder notes).
STATE_COMMANDS = frozenset(
    {CMD_ADD_STREAM, CMD_REMOVE_STREAM, CMD_APPLY, CMD_REGISTER_QUERY, CMD_DEREGISTER_QUERY}
)


#: How long one response may take before the runtime is declared wedged
#: (workers answer polls in milliseconds; this only trips when something
#: is truly broken and the process is still technically alive).
RESPONSE_TIMEOUT_SECONDS = 300.0
_WAIT_SLICE_SECONDS = 0.2


class WorkerDied(RuntimeError):
    """A worker process exited without being asked to."""


class WorkerCrashed(RuntimeError):
    """A worker raised inside command processing (traceback attached)."""


class WorkerSpec(NamedTuple):
    """Everything needed to build (or rebuild) one shard's monitor."""

    queries: Mapping[Any, LabeledGraph]
    method: str = "dsc"
    depth_limit: int = 3
    scheme: DimensionScheme = PAPER_SCHEME
    ring: str | None = None  # payload-ring segment name (coordinator-created)
    flight_dir: str | None = None  # flight-recorder journal/dump directory

    def build_monitor(self) -> StreamMonitor:
        """A fresh monitor over the birth query set."""
        return StreamMonitor(
            dict(self.queries),
            method=self.method,
            depth_limit=self.depth_limit,
            scheme=self.scheme,
        )


class ShardState:
    """The worker's in-process state: :func:`worker_main` runs one per
    worker process, and the test suite's simulated fleet runs N of them
    in one process, so the command semantics live in exactly one place."""

    __slots__ = ("shard_id", "monitor", "ring")

    def __init__(
        self, shard_id: int, monitor: StreamMonitor, ring: RingReader | None = None
    ) -> None:
        self.shard_id = shard_id
        self.monitor = monitor
        self.ring = ring

    def execute(self, command: tuple) -> tuple | None:
        """Apply one inbox command; return the response to emit (None
        for fire-and-forget state commands)."""
        kind = command[0]
        if kind == CMD_APPLY:
            _, stream_id, update = command
            if isinstance(update, RingRef):
                if self.ring is None:
                    raise ValueError(
                        "received a ring payload but no ring is attached"
                    )
                update = pickle.loads(self.ring.read(update))
            self.monitor.apply(stream_id, update)
            return None
        if kind == CMD_ADD_STREAM:
            _, stream_id, initial = command
            # The index build over the initial graph — all a respawn costs.
            with obs.span("runtime.add_stream", stream=stream_id):
                self.monitor.add_stream(stream_id, initial)
            return None
        if kind == CMD_REMOVE_STREAM:
            self.monitor.remove_stream(command[1])
            return None
        if kind == CMD_REGISTER_QUERY:
            _, query_id, query = command
            self.monitor.register_query(query_id, query)
            return None
        if kind == CMD_DEREGISTER_QUERY:
            self.monitor.deregister_query(command[1])
            return None
        if kind == CMD_POLL:
            candidates = frozenset(self.monitor.matches())
            return (CMD_POLL, command[1], self.shard_id, candidates)
        if kind == CMD_STATS:
            return (CMD_STATS, command[1], self.shard_id, self.stats())
        if kind == CMD_TRACE:
            # Ship the process-local span ring (records carry this
            # worker's trace/span/parent ids and process label).
            return (CMD_TRACE, command[1], self.shard_id, obs.spans())
        if kind == CMD_STOP:
            self.shutdown()
            return (CMD_STOP, command[1], self.shard_id, None)
        raise ValueError(f"unknown worker command {kind!r}")

    def shutdown(self) -> None:
        """Detach from the payload ring on graceful stop (the
        coordinator created it and owns the unlink)."""
        self.monitor.close()
        if self.ring is not None:
            self.ring.close()
            self.ring = None

    def stats(self) -> dict[str, Any]:
        """Shard-local stats: the monitor's own view and the
        process-local observability registry (merged by the coordinator
        with :func:`repro.obs.merge_summaries`)."""
        return {
            "shard_id": self.shard_id,
            "monitor": self.monitor.stats(),
            "obs": obs.get_registry().summary(),
        }


def worker_main(shard_id: int, spec: WorkerSpec, inbox, outbox) -> None:
    """Process entry point: build the shard monitor and serve commands
    until :data:`CMD_STOP` (or a crash, reported on the outbox).

    Each inbox command may arrive stamped with the coordinator's trace
    context (:func:`repro.obs.stamp_envelope`); the worker splits the
    envelope and executes the base command under
    :func:`repro.obs.attached`, so the root spans it opens join the
    coordinator-side trace of the call that caused them.  The commands
    a recovery seeds a respawn with arrive bare, hence open fresh traces.
    """
    obs.set_process_label(f"shard-{shard_id}")
    # A recovery respawn forks from a coordinator that may be mid-span:
    # drop every piece of observability state inherited across the fork
    # (open frames, the span ring, the registry) so this process starts
    # clean — the commands recovery seeds it with open *fresh* root
    # traces, and the shard's registry never double-counts coordinator
    # instruments when stats are merged.
    obs.trace.reset()
    obs.clear_spans()
    obs.set_registry(obs.Registry())
    # The flight recorder's JSONL journal is flushed per event, so even a
    # SIGKILL — no handlers, no unwinding — leaves the last pre-crash
    # commands readable on disk.  SIGUSR2 dumps a full snapshot on demand
    # (``repro flight signal``).
    flight = None
    if spec.flight_dir is not None:
        from ..obs.flight import FlightRecorder, install_signal_dump

        flight = FlightRecorder(Path(spec.flight_dir) / f"flight-shard{shard_id}.jsonl")
        install_signal_dump(flight, spec.flight_dir)
    try:
        ring = RingReader(spec.ring) if spec.ring is not None else None
        state = ShardState(shard_id, spec.build_monitor(), ring=ring)
    except BaseException:  # noqa: BLE001 - startup failures must surface
        outbox.put(("error", None, shard_id, traceback.format_exc()))
        if flight is not None:
            flight.note("crash", stage="startup")
            flight.dump(
                Path(spec.flight_dir) / f"flight-shard{shard_id}-crash.json",
                reason="startup-crash",
            )
        raise
    while True:
        envelope = pickle.loads(inbox.get())
        command, ctx = obs.split_envelope(envelope)
        try:
            with obs.attached(ctx):
                response = state.execute(command)
            if flight is not None and command[0] in STATE_COMMANDS:
                closed = obs.last_span()
                flight.note(
                    "command",
                    verb=command[0],
                    span=closed.name if closed is not None else None,
                    duration=closed.duration if closed is not None else None,
                    trace_id=closed.trace_id if closed is not None else None,
                )
        except BaseException:  # noqa: BLE001 - report, then die loudly
            outbox.put(("error", None, shard_id, traceback.format_exc()))
            if flight is not None:
                flight.note("crash", verb=command[0])
                flight.dump(
                    Path(spec.flight_dir) / f"flight-shard{shard_id}-crash.json",
                    reason="command-crash",
                )
            raise
        if response is not None:
            outbox.put(response)
        if command[0] == CMD_STOP:
            if flight is not None:
                flight.close()
            return


class WorkerProcess:
    """The coordinator's end of one worker: its process and two queues
    (a bounded inbox of commands, an outbox of tagged responses)."""

    __slots__ = ("shard_id", "process", "inbox", "outbox")

    def __init__(self, context: Any, shard_id: int, spec: WorkerSpec, capacity: int) -> None:
        self.shard_id = shard_id
        self.inbox = context.Queue(maxsize=capacity)
        self.outbox = context.Queue()
        self.process = context.Process(
            target=worker_main,
            args=(shard_id, spec, self.inbox, self.outbox),
            name=f"repro-shard-{shard_id}",
            daemon=True,
        )
        self.process.start()

    def is_alive(self) -> bool:
        """Is the process still running?"""
        return self.process.is_alive()

    def depth(self) -> int:
        """Pending commands (``qsize`` is approximate; -1 where the
        platform lacks it)."""
        try:
            return self.inbox.qsize()
        except (NotImplementedError, OSError):
            return -1

    def put(self, command: tuple) -> int:
        """Pickle ``command`` now, on the caller's thread, and enqueue the
        bytes, waiting out a full inbox; detect death while waiting.
        Returns the pickled size.  The queue's feeder thread only copies
        bytes, so the caller may change what it sent as soon as this
        returns."""
        payload = pickle.dumps(command)
        while True:
            try:
                self.inbox.put(payload, timeout=_WAIT_SLICE_SECONDS)
                return len(payload)
            except queue_module.Full:
                if not self.is_alive():
                    raise WorkerDied(
                        f"shard {self.shard_id} worker died with a full inbox"
                    ) from None

    def receive(self, kind: str) -> tuple:
        """The next response, which must answer a ``kind`` request."""
        waited = 0.0
        while True:
            try:
                response = self.outbox.get(timeout=_WAIT_SLICE_SECONDS)
            except queue_module.Empty:
                waited += _WAIT_SLICE_SECONDS
                if not self.is_alive():
                    raise WorkerDied(
                        f"shard {self.shard_id} worker died before answering {kind}"
                    ) from None
                if waited >= RESPONSE_TIMEOUT_SECONDS:
                    raise TimeoutError(
                        f"shard {self.shard_id} did not answer {kind} within "
                        f"{RESPONSE_TIMEOUT_SECONDS}s"
                    ) from None
                continue
            if response[0] == "error":
                raise WorkerCrashed(f"shard {self.shard_id} worker crashed:\n{response[3]}")
            if response[0] == kind:
                return response
            # Queues are per-spawn, so a stale response cannot happen;
            # anything else is a protocol bug worth failing loudly on.
            raise RuntimeError(f"unexpected worker response {response[:2]!r}")

    def stop(self, request_id: int) -> None:
        """Ask a live worker to stop and let it exit, then release the
        process (terminated if it will not go) and the queues."""
        if self.is_alive():
            try:
                self.put((CMD_STOP, request_id))
                self.receive(CMD_STOP)
            except (WorkerDied, WorkerCrashed, TimeoutError):
                pass  # released below either way
            self.process.join(timeout=5)
        if self.is_alive():
            self.process.terminate()
        self.process.join(timeout=5)
        for channel in (self.inbox, self.outbox):
            channel.cancel_join_thread()
            channel.close()
