"""The shard worker: one forked process, one private :class:`StreamMonitor`.

A worker owns a disjoint subset of the registered streams (chosen by the
coordinator's :class:`~repro.runtime.router.ShardRouter`) over the full
shared query set.  It is one ``os.fork()`` of the coordinator joined to
it by two pipes of length-prefixed frames.  It runs the commands on its
inbox in FIFO order — which is what makes a poll a consistent barrier:
the poll command is written after every update it must observe — answers
each one it takes with a credit frame, and writes tagged responses on its
outbox.  All answering state is the monitor's.

Each pipe has one process at either end, so EOF carries every death: a
worker exits at EOF on its inbox (its coordinator closed it, or died),
and the coordinator meets a dead worker as EOF on the outbox or
``EPIPE`` on the inbox.  No thread and no poll timer is involved.

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

import os
import pickle
import select
import signal
import sys
import traceback
from collections import deque
from pathlib import Path
from typing import Any, Iterator, Mapping, NamedTuple, NoReturn

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

#: Commands that mutate shard state (the ones the flight recorder notes).
STATE_COMMANDS = frozenset(
    {CMD_ADD_STREAM, CMD_REMOVE_STREAM, CMD_APPLY, CMD_REGISTER_QUERY, CMD_DEREGISTER_QUERY}
)


#: How long one response may take before the runtime is declared wedged
#: (workers answer polls in milliseconds; this only trips when something
#: is truly broken and the process is still technically alive).
RESPONSE_TIMEOUT_SECONDS = 300.0


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
        raise ValueError(f"unknown worker command {kind!r}")

    def shutdown(self) -> None:
        """Close the monitor and detach from the payload ring once the
        inbox is done (the coordinator created the ring and owns the
        unlink)."""
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


def worker_main(shard_id: int, spec: WorkerSpec, inbox: int, outbox: int) -> None:
    """Process entry point: build the shard monitor and serve the
    commands framed on the ``inbox`` pipe until it reaches EOF (or a
    crash, reported on the ``outbox`` pipe).  Every command taken off the
    inbox is first acknowledged with one credit frame on the outbox;
    replies follow as frames of their own.

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
        _write_frame(outbox, ("error", None, shard_id, traceback.format_exc()))
        if flight is not None:
            flight.note("crash", stage="startup")
            flight.dump(
                Path(spec.flight_dir) / f"flight-shard{shard_id}-crash.json",
                reason="startup-crash",
            )
        raise
    for payload in _frames(inbox):
        _write_all(outbox, _CREDIT)
        command, ctx = obs.split_envelope(pickle.loads(payload))
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
            _write_frame(outbox, ("error", None, shard_id, traceback.format_exc()))
            if flight is not None:
                flight.note("crash", verb=command[0])
                flight.dump(
                    Path(spec.flight_dir) / f"flight-shard{shard_id}-crash.json",
                    reason="command-crash",
                )
            raise
        if response is not None:
            _write_frame(outbox, response)
    # EOF: the coordinator closed the inbox (or died) and every command
    # before it has run.
    state.shutdown()
    if flight is not None:
        flight.close()


# ----------------------------------------------------------------------
# the transport: two pipes of length-prefixed frames
# ----------------------------------------------------------------------
#: A frame is a 4-byte little-endian payload length, then the payload (a
#: pickle).  No reply pickles to nothing, so a zero-length frame on the
#: outbox is free to mean one credit: one command taken off the inbox.
_HEADER = 4
_CREDIT = bytes(_HEADER)
_READ_BYTES = 1 << 16

#: The coordinator's ends of every worker's pipes open in this process.
#: A forked worker closes all of them, so each pipe has one process at
#: either end: a worker's death is EOF on its outbox, and the
#: coordinator's is EOF on every inbox.
_COORDINATOR_ENDS: set[int] = set()


def _frame(payload: bytes) -> bytes:
    return len(payload).to_bytes(_HEADER, "little") + payload


def _write_all(fd: int, data: bytes) -> None:
    """Write all of ``data`` to a blocking pipe."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def _write_frame(fd: int, message: object) -> None:
    _write_all(fd, _frame(pickle.dumps(message)))


def _frames(fd: int) -> Iterator[bytes]:
    """The payloads framed on a blocking pipe, until EOF."""
    unread = bytearray()
    while chunk := os.read(fd, _READ_BYTES):
        unread += chunk
        yield from _split(unread)


def _split(unread: bytearray) -> Iterator[bytes]:
    """Take the payload of each whole frame off the front of ``unread``."""
    while len(unread) >= _HEADER:
        end = _HEADER + int.from_bytes(unread[:_HEADER], "little")
        if len(unread) < end:
            return
        yield bytes(unread[_HEADER:end])
        del unread[:end]


def _run_forked(shard_id: int, spec: WorkerSpec, inbox: int, outbox: int) -> NoReturn:
    """The forked child: shed what it inherited, run the worker, and
    leave by ``os._exit`` — never back into the coordinator's code, and
    without running its exit handlers or finalizers."""
    code = 1
    try:
        for fd in _COORDINATOR_ENDS:
            os.close(fd)
        _COORDINATOR_ENDS.clear()
        # Never read the coordinator's stdin (a served stdio session).
        devnull = os.open(os.devnull, os.O_RDONLY)
        os.dup2(devnull, 0)
        os.close(devnull)
        # The coordinator's handlers (a served drain, its wakeup fd) are
        # not the worker's.  Its coordinator ends it, by closing the inbox
        # or by dying, so an interrupt at the terminal is the
        # coordinator's to act on.
        signal.set_wakeup_fd(-1)
        for signum in signal.valid_signals():
            if callable(signal.getsignal(signum)):
                signal.signal(signum, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        worker_main(shard_id, spec, inbox, outbox)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except BrokenPipeError:
        pass  # the coordinator is gone: there is no one left to answer or tell
    except BaseException:  # noqa: BLE001 - the traceback goes to stderr, then exit 1
        sys.stderr.write(f"repro-shard-{shard_id}:\n")
        traceback.print_exc()
    finally:
        _flush_std_streams()
        os._exit(code)


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, OSError, ValueError):
            pass  # no stream, or a closed one: nothing left to flush


class WorkerProcess:
    """The coordinator's end of one forked worker: its pid and two pipes.
    Commands go out as frames on the inbox, at most ``capacity`` of them
    not yet taken (``sent`` minus ``credited``); replies and credits come
    back on the outbox."""

    __slots__ = (
        "shard_id", "pid", "capacity", "sent", "credited",
        "_inbox", "_outbox", "_unread", "_replies", "_eof", "_reaped",
    )

    def __init__(self, shard_id: int, spec: WorkerSpec, capacity: int) -> None:
        self.shard_id = shard_id
        self.capacity = capacity
        self.sent = self.credited = 0
        self._unread = bytearray()
        self._replies: deque[bytes] = deque()
        self._eof = self._reaped = False
        inbox, self._inbox = os.pipe()
        try:
            self._outbox, outbox = os.pipe()
        except OSError:  # out of descriptors: release the first pipe
            os.close(inbox)
            os.close(self._inbox)
            raise
        _COORDINATOR_ENDS.update((self._inbox, self._outbox))
        _flush_std_streams()  # what is buffered is written once, not once per process
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (inbox, outbox, self._inbox, self._outbox):
                os.close(fd)
            _COORDINATOR_ENDS.difference_update((self._inbox, self._outbox))
            raise
        if self.pid == 0:  # the child closes its own coordinator ends with the rest
            _run_forked(shard_id, spec, inbox, outbox)
        os.close(inbox)
        os.close(outbox)
        os.set_blocking(self._inbox, False)
        os.set_blocking(self._outbox, False)

    def is_alive(self) -> bool:
        """Has the process neither exited nor closed its outbox?"""
        if self._eof or self._reaped:
            return False
        try:
            pid, _ = os.waitpid(self.pid, os.WNOHANG)
        except ChildProcessError:  # reaped elsewhere
            pid = self.pid
        self._reaped = pid == self.pid
        return not self._reaped

    def depth(self) -> int:
        """Commands sent and not yet taken by the worker: exact, after
        reading the credits already on the outbox."""
        self._read()
        return self.sent - self.credited

    def put(self, command: tuple) -> int:
        """Pickle ``command`` now, on the caller's thread, and send it
        (:meth:`send`).  Returns the pickled size; the caller may change
        what it sent as soon as this returns."""
        payload = pickle.dumps(command)
        self.send(payload)
        return len(payload)

    def send(self, payload: bytes) -> None:
        """Write one pickled command to the inbox as a frame, first
        waiting for a credit while ``capacity`` commands are untaken.  The
        worker's death while waiting or writing raises
        :class:`WorkerDied`.  Anything else that leaves mid-frame (an
        interrupt while a large frame waits for room) kills the worker
        first: the torn frame would be the front of its next command."""
        while self.sent - self.credited >= self.capacity:
            self._await("with a full inbox")
        frame = memoryview(_frame(payload))
        view = frame
        try:
            while view:
                try:
                    view = view[os.write(self._inbox, view) :]
                except BlockingIOError:
                    self._await("with a full inbox", writing=True)
        except BrokenPipeError:
            raise WorkerDied(
                f"shard {self.shard_id} worker died before a command reached it"
            ) from None
        except BaseException:
            if 0 < len(view) < len(frame):
                self._kill()
            raise
        self.sent += 1

    def receive(self, kind: str) -> tuple:
        """The next response, which must answer a ``kind`` request."""
        while not self._replies:
            self._await(f"before answering {kind}", RESPONSE_TIMEOUT_SECONDS)
        response = pickle.loads(self._replies.popleft())
        if response[0] == "error":
            raise WorkerCrashed(f"shard {self.shard_id} worker crashed:\n{response[3]}")
        if response[0] == kind:
            return response
        # Pipes are per-spawn, so a stale response cannot happen; anything
        # else is a protocol bug worth failing loudly on.
        raise RuntimeError(f"unexpected worker response {response[:2]!r}")

    def _await(self, waiting: str, timeout: float | None = None, writing: bool = False) -> None:
        """Block until the outbox has bytes and read them (or, when
        ``writing``, until the inbox has room).  An outbox at EOF — the
        worker is gone, and what it wrote has been read — raises
        :class:`WorkerDied`; no byte within ``timeout`` seconds, a
        :class:`TimeoutError`."""
        if self._eof:
            raise WorkerDied(f"shard {self.shard_id} worker died {waiting}")
        if not self._poll(timeout, writing):
            raise TimeoutError(
                f"shard {self.shard_id} did not answer within {timeout}s ({waiting})"
            )
        self._read()

    def _poll(self, timeout: float | None, writing: bool = False) -> bool:
        """Wait for the outbox to be readable (or the inbox writable);
        False when ``timeout`` seconds pass first."""
        poller = select.poll()
        poller.register(self._outbox, select.POLLIN)
        if writing:
            poller.register(self._inbox, select.POLLOUT)
        return bool(poller.poll(None if timeout is None else timeout * 1000))

    def _read(self) -> bool:
        """Take every byte on the outbox: count the credits, queue the
        replies.  False once the outbox has reached EOF."""
        while not self._eof:
            try:
                chunk = os.read(self._outbox, _READ_BYTES)
            except BlockingIOError:
                break
            if not chunk:
                self._eof = True
                break
            self._unread += chunk
            for payload in _split(self._unread):
                if payload:
                    self._replies.append(payload)
                else:
                    self.credited += 1
        return not self._eof

    def stop(self) -> None:
        """Close the inbox, so the worker runs what it holds and exits;
        reap it (killed if no byte comes for
        :data:`RESPONSE_TIMEOUT_SECONDS`) and close the outbox."""
        if self._inbox < 0:
            return
        os.close(self._inbox)
        try:
            while self._read():  # replies the worker may be blocked writing
                if not self._poll(RESPONSE_TIMEOUT_SECONDS):
                    self._kill()
                    break
        finally:
            os.close(self._outbox)
            _COORDINATOR_ENDS.difference_update((self._inbox, self._outbox))
            self._inbox = self._outbox = -1
            self._reap()

    def _kill(self) -> None:
        """SIGKILL the worker and reap it, so it is dead to every later
        call.  Until it is reaped its pid cannot name another process."""
        if not self._reaped:
            os.kill(self.pid, signal.SIGKILL)
        self._reap()

    def _reap(self) -> None:
        if not self._reaped:
            try:
                os.waitpid(self.pid, 0)
            except ChildProcessError:
                pass  # reaped elsewhere
            self._reaped = True
