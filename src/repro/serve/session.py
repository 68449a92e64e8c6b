"""Per-client sessions and the single-writer monitor bridge.

A :class:`Session` holds everything client-scoped: staged (uncommitted)
batches per stream, the last match set the client has seen (so each
session gets its *own* appeared/vanished deltas via
:func:`repro.core.monitor.diff_polls`), and request counters.

A :class:`MonitorBridge` owns the monitor.  Every command — from every
session, and from the stdin adapter — funnels through
:meth:`MonitorBridge.execute`, which is the **only** code that touches
the monitor.  The TCP server enforces the single-writer discipline
by calling it from its one loop; the stdin loop is trivially single
writer.  Commits open an ``serve.commit`` span, which is what mints the
trace id (only :mod:`repro.obs.trace` mints) and lets the
coordinator stamp it onto runtime command envelopes — the reply carries
the id back to the client so one request is followable end-to-end in
``repro trace``.

Poison batches (:class:`~repro.graph.labeled_graph.GraphError`,
value/key errors, worker crashes) are refused — an ``ok: false`` reply
plus a ``serve.refused`` count — and *cleared from the stage*: a batch
left staged would re-fail every later commit.  Nothing keeps a refused
batch.  Healthy streams in the same commit still apply.

The bridge validates one thing of its own, before ``apply``: no batch
or inline pattern may hold two vertex ids that write as the same text
(``1`` and ``"1"``, :func:`repro.graph.io.text_clash`), since such a
graph would fail every later checkpoint.  The rest is the monitor's:
``apply`` on every monitor is all-or-nothing and synchronous about
refusal: the in-process monitor checks the batch against the stream's
graph before the first splice
(:meth:`repro.nnt.incremental.NNTIndex.apply`), the sharded runtime
against its graph of record before anything is sent to a worker, both
with the read-only :func:`repro.graph.operations.check_batch` — so a
refused batch raises here with nothing applied anywhere, and the next
commit on the stream starts from the state the last good one left.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Iterable, Mapping

from .. import obs
from ..core.monitor import CheckpointError, diff_polls
from ..graph.io import read_graph_set, text_clash
from ..graph.labeled_graph import GraphError, LabeledGraph
from ..graph.operations import (
    INSERT,
    EdgeChange,
    GraphChangeOperation,
    apply_batch_validated,  # re-exported: the e2e harness imports it from here
)
from ..runtime import WorkerCrashed
from . import protocol
from .protocol import (
    AddQuery,
    AddStream,
    BatchEdit,
    Checkpoint,
    Command,
    Commit,
    DelQuery,
    Edit,
    Matches,
    Poll,
    ProtocolError,
    Quit,
    Stats,
)

__all__ = [
    "Session",
    "MonitorBridge",
    "apply_batch_validated",
    "serve_lines",
]

#: Exceptions that make a batch *poison* (refused, never retried).
POISON_ERRORS: tuple[type[BaseException], ...] = (
    GraphError,
    ValueError,
    KeyError,
    WorkerCrashed,
)


class Session:
    """Client-scoped state; owns no monitor access of its own."""

    def __init__(self, session_id: int, label: str = "") -> None:
        self.session_id = session_id
        self.label = label or f"session-{session_id}"
        self.pending: dict[Any, list[EdgeChange]] = {}
        self.last_poll: set = set()
        self.commands = 0
        self.commits = 0
        self.closed = False

    def stage(self, stream_id: Any, changes: Iterable[EdgeChange]) -> int:
        """Stage changes for the next commit; returns the pending count."""
        staged = self.pending.setdefault(stream_id, [])
        staged.extend(changes)
        return len(staged)

    @property
    def staged_changes(self) -> int:
        return sum(len(changes) for changes in self.pending.values())


class MonitorBridge:
    """Single-writer executor translating commands into monitor calls."""

    def __init__(
        self,
        monitor: Any,
        extra_stats: Callable[[], Mapping[str, Any]] | None = None,
    ) -> None:
        self.monitor = monitor
        self._extra_stats = extra_stats
        self.timestamp = 0
        self.accepted_batches = 0
        #: Poison batches and queries refused so far.
        self.refused = 0
        self._batches = obs.counter("serve.batches_applied")
        self._refused = obs.counter("serve.refused")
        self._commands = obs.counter("serve.commands")
        #: The last graph-set file read, as ``((path, mtime_ns, size),
        #: parsed)``: registering n streams out of one file parses it once.
        self._graph_file: tuple[tuple, dict[str, LabeledGraph]] | None = None

    # -- command execution -------------------------------------------------

    def execute(self, session: Session, command: Command) -> dict[str, Any]:
        """Run one parsed command; always returns a JSON-typed reply."""
        session.commands += 1
        self._commands.inc()
        if isinstance(command, AddStream):
            return self._add_stream(session, command)
        if isinstance(command, AddQuery):
            return self._add_query(session, command)
        if isinstance(command, DelQuery):
            return self._del_query(session, command)
        if isinstance(command, Edit):
            pending = session.stage(command.stream_id, [command.change])
            return {
                "ok": True,
                "cmd": command.verb,
                "stream": command.stream_id,
                "pending": pending,
            }
        if isinstance(command, BatchEdit):
            pending = session.stage(command.stream_id, command.changes)
            return {
                "ok": True,
                "cmd": command.verb,
                "stream": command.stream_id,
                "staged": len(command.changes),
                "pending": pending,
            }
        if isinstance(command, Commit):
            return self._commit(session, command)
        if isinstance(command, Poll):
            return {
                "ok": True,
                "cmd": command.verb,
                "t": self.timestamp,
                "events": self._session_events(session),
            }
        if isinstance(command, Matches):
            pairs = sorted(self.monitor.matches(), key=lambda p: (str(p[0]), str(p[1])))
            return {
                "ok": True,
                "cmd": command.verb,
                "matches": [[s, q] for s, q in pairs],
            }
        if isinstance(command, Stats):
            stats = dict(self.monitor.stats())
            stats["serve"] = self.serve_stats()
            return {"ok": True, "cmd": command.verb, "stats": stats}
        if isinstance(command, Checkpoint):
            return self.checkpoint(command.verb)
        if isinstance(command, Quit):
            return {"ok": True, "cmd": command.verb}
        raise ProtocolError(f"unhandled command {type(command).__name__}")

    def _graph_set(self, path: str) -> dict[str, LabeledGraph]:
        """The graphs of one graph-set file by name, parsed again only
        when the file has changed on disk.  The graphs are shared between
        calls: callers copy before they mutate."""
        status = os.stat(path)
        key = (str(path), status.st_mtime_ns, status.st_size)
        if self._graph_file is None or self._graph_file[0] != key:
            self._graph_file = (key, dict(read_graph_set(path)))
        return self._graph_file[1]

    def _add_stream(self, session: Session, command: AddStream) -> dict[str, Any]:
        if command.graph_file is not None:
            try:
                graph_set = self._graph_set(command.graph_file)
            except (OSError, GraphError) as exc:
                raise ProtocolError(f"{type(exc).__name__}: {exc}") from exc
            if not graph_set:
                raise ProtocolError(f"empty graph set {command.graph_file}")
            key = (
                command.graph_key
                if command.graph_key is not None
                else next(iter(graph_set))
            )
            if key not in graph_set:
                raise ProtocolError(
                    f"graph {key!r} not in {command.graph_file}"
                )
            initial = graph_set[key]
        else:
            initial = LabeledGraph()
        try:
            self.monitor.add_stream(command.stream_id, initial)
        except (ValueError, KeyError) as exc:
            return {
                "ok": False,
                "cmd": command.verb,
                "stream": command.stream_id,
                "error": f"{type(exc).__name__}: {exc}",
            }
        session.pending.setdefault(command.stream_id, [])
        return {"ok": True, "cmd": command.verb, "stream": command.stream_id}

    def _load_pattern(self, command: AddQuery) -> LabeledGraph:
        """Build the query pattern *bridge-side*, so malformed patterns
        are poison here and never reach a shard worker (where the crash
        loop of satellite lore would begin)."""
        if command.graph_file is not None:
            graph_set = self._graph_set(command.graph_file)
            if not graph_set:
                raise ValueError(f"empty graph set {command.graph_file}")
            key = (
                command.graph_key
                if command.graph_key is not None
                else next(iter(graph_set))
            )
            if key not in graph_set:
                raise KeyError(f"graph {key!r} not in {command.graph_file}")
            return graph_set[key]
        pattern = LabeledGraph()
        for vertex, label in command.vertices:
            pattern.add_vertex(vertex, label)
        for u, v, label in command.edges:
            pattern.add_edge(u, v, label)
        if pattern.num_vertices == 0:
            raise ValueError("empty query pattern")
        for vertex in pattern.vertices():
            clash = text_clash(vertex, pattern)
            if clash:
                raise ValueError(clash)
        return pattern

    def _add_query(self, session: Session, command: AddQuery) -> dict[str, Any]:
        trace_id = None
        try:
            # A refusal leaves the span as an error, so it lands in the
            # {error=...} series and the unlabelled count is accepted addqs.
            with obs.span(
                "serve.register_query",
                session=session.label,
                query=str(command.query_id),
            ):
                ctx = obs.current_context()
                trace_id = ctx.trace_id if ctx is not None else None
                pattern = self._load_pattern(command)
                self.monitor.register_query(command.query_id, pattern)
        except POISON_ERRORS + (OSError, TypeError) as exc:
            self._refuse()
            reply: dict[str, Any] = {
                "ok": False,
                "cmd": command.verb,
                "query": command.query_id,
                "error": f"{type(exc).__name__}: {exc}",
            }
        else:
            reply = {
                "ok": True,
                "cmd": command.verb,
                "query": command.query_id,
                "queries": len(self.monitor.query_ids()),
            }
        if trace_id is not None:
            reply["trace"] = trace_id
        return reply

    def _del_query(self, session: Session, command: DelQuery) -> dict[str, Any]:
        trace_id = None
        try:
            with obs.span(
                "serve.deregister_query",
                session=session.label,
                query=str(command.query_id),
            ):
                ctx = obs.current_context()
                trace_id = ctx.trace_id if ctx is not None else None
                self.monitor.deregister_query(command.query_id)
        except POISON_ERRORS as exc:
            # An unknown id is a plain error, not a counted refusal.
            reply: dict[str, Any] = {
                "ok": False,
                "cmd": command.verb,
                "query": command.query_id,
                "error": f"{type(exc).__name__}: {exc}",
            }
        else:
            reply = {
                "ok": True,
                "cmd": command.verb,
                "query": command.query_id,
                "queries": len(self.monitor.query_ids()),
            }
        if trace_id is not None:
            reply["trace"] = trace_id
        return reply

    def _commit(self, session: Session, command: Commit) -> dict[str, Any]:
        self.timestamp += 1
        session.commits += 1
        applied = 0
        errors: list[dict[str, Any]] = []
        checkpoint_error = None
        with obs.span(
            "serve.commit", session=session.label, t=self.timestamp
        ):
            ctx = obs.current_context()
            trace_id = ctx.trace_id if ctx is not None else None
            for stream_id in list(session.pending):
                changes = session.pending[stream_id]
                if not changes:
                    continue
                try:
                    self._check_new_ids(stream_id, changes)
                    # All or nothing: a refused batch leaves no trace.
                    self.monitor.apply(stream_id, GraphChangeOperation(changes))
                except CheckpointError as exc:
                    # The batch is in; only the cadence export after it failed.
                    checkpoint_error = str(exc)
                except POISON_ERRORS as exc:
                    self._refuse()
                    errors.append(
                        {"stream": stream_id, "error": f"{type(exc).__name__}: {exc}"}
                    )
                    continue
                finally:
                    # Even an unexpected error must not leave the batch
                    # staged to re-fail every later commit.
                    changes.clear()
                applied += 1
                self.accepted_batches += 1
                self._batches.inc()
            events = self._session_events(session)
        reply: dict[str, Any] = {
            "ok": not errors,
            "cmd": command.verb,
            "t": self.timestamp,
            "applied": applied,
            "events": events,
        }
        if trace_id is not None:
            reply["trace"] = trace_id
        if checkpoint_error is not None:
            reply["checkpoint_error"] = checkpoint_error
        if errors:
            reply["errors"] = errors
            reply["error"] = errors[0]["error"]
        return reply

    def _check_new_ids(self, stream_id: Any, changes: list[EdgeChange]) -> None:
        """Refuse (``ValueError``) a batch whose new endpoints clash in
        text with the stream's vertices or with each other."""
        try:
            graph = self.monitor.graph(stream_id)
        except KeyError:
            return  # an unknown stream: ``apply`` refuses it
        new = {
            vertex
            for change in changes
            if change.op == INSERT
            for vertex in (change.u, change.v)
            if vertex not in graph
        }
        for vertex in new:
            clash = text_clash(vertex, graph, new)
            if clash:
                raise ValueError(clash)

    def _refuse(self) -> None:
        self.refused += 1
        self._refused.inc()

    def checkpoint(self, verb: str = "checkpoint") -> dict[str, Any]:
        """The ``checkpoint`` verb (the server's drain runs it too): a
        failed export (no directory, an unwritable one, a graph the text
        format cannot carry) is a reply, never an exception."""
        try:
            export = self.monitor.checkpoint()
        except (RuntimeError, OSError, ValueError) as exc:
            return {"ok": False, "cmd": verb, "error": f"{type(exc).__name__}: {exc}"}
        return {"ok": True, "cmd": verb, "checkpoint": export}

    def _session_events(self, session: Session) -> list[dict[str, Any]]:
        current = set(self.monitor.matches())
        events = diff_polls(session.last_poll, current)
        session.last_poll = current
        return [protocol.event_to_dict(e, self.timestamp) for e in events]

    # -- stats -------------------------------------------------------------

    def serve_stats(self) -> dict[str, Any]:
        """The ``serve`` section of the ``stats`` reply."""
        stats: dict[str, Any] = {
            "timestamp": self.timestamp,
            "accepted_batches": self.accepted_batches,
            # Counts refusals under its old name: benchmarks/e2e/lane.py
            # reads this key (ROADMAP 1(a) renames it).
            "dead_letters": self.refused,
        }
        if self._extra_stats is not None:
            stats.update(self._extra_stats())
        return stats


def serve_lines(
    monitor: Any,
    lines: Iterable[str],
    emit: Callable[[dict[str, Any]], None],
    stats_every: int = 0,
) -> int:
    """The stdin front-end: a thin synchronous adapter over the same
    protocol/session machinery the TCP server uses.

    Reads text-protocol lines, emits one reply dict per command, and
    stops at ``quit`` or end of input.  Returns the number of commands
    executed.
    """
    bridge = MonitorBridge(monitor)
    session = Session(0, label="stdin")
    executed = 0
    for raw in lines:
        try:
            command = protocol.parse_text_line(raw)
        except ProtocolError as exc:
            emit({"ok": False, "error": str(exc), "code": "bad_request"})
            continue
        if command is None:
            continue
        try:
            reply = bridge.execute(session, command)
        except ProtocolError as exc:
            emit({"ok": False, "error": str(exc), "code": "bad_request"})
            continue
        except POISON_ERRORS + (OSError,) as exc:
            # Non-batch failures (e.g. unreadable graph-set file) are
            # reported in the historical `Type: message` shape.
            emit({"ok": False, "error": f"{type(exc).__name__}: {exc}"})
            continue
        executed += 1
        emit(reply)
        if (
            isinstance(command, Commit)
            and stats_every
            and bridge.timestamp % stats_every == 0
        ):
            emit(
                {
                    "ok": True,
                    "cmd": "stats_auto",
                    "t": bridge.timestamp,
                    "obs": monitor.obs_summary(),
                }
            )
        if isinstance(command, Quit):
            break
    return executed
