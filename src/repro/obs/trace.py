"""Trace identity: ids, cross-process propagation, and trace export.

This module is the **only minting site** for trace and span ids
(``tests/fitness/test_invariants.py``): every id in the system is either created here or copied from a
value that was.  :mod:`repro.obs.spans` calls :func:`push_span` /
:func:`pop_span` around each live span, which assigns the span a fresh
span id, ties it to the active trace (minting a new trace id when the
span is a root), and remembers its parent span id — so one coordinator
``apply`` and every worker-side stage it caused share a single trace.

Propagation across the process boundary is explicit and value-based,
matching the runtime's pickled command tuples:

* the coordinator stamps each outgoing command with
  :func:`stamp_envelope` (appends the current :class:`TraceContext`,
  if any);
* the worker splits it back off with :func:`split_envelope` and
  executes the command under :func:`attached`, so the worker's root
  spans adopt the coordinator's trace id and parent span id.

The commands recovery seeds a respawned worker with are sent *without*
a context (the bare command, not an envelope), so a respawned worker
opens fresh traces instead of re-attaching to
parents that ended before it was born — no orphan parent ids.

The ids are process-unique by construction (``pid`` + per-process
counter, both read at mint time so they survive ``fork``), carry no
randomness, and are cheap: minting is a string format, not a syscall.

Export helpers turn collected :class:`~repro.obs.spans.SpanRecord`
sequences into the Chrome trace-event JSON that Perfetto and
``chrome://tracing`` load (:func:`to_chrome`; one ``pid`` track per
process label) or into a plain-text top-N critical-spans table
(:func:`render_critical_spans`).  Both are surfaced as ``repro trace``.

Like the span stack, all state here is process-local and single-
threaded by design.
"""

from __future__ import annotations

import os
from typing import Any, Iterable, NamedTuple

__all__ = [
    "TraceContext",
    "attached",
    "current_context",
    "new_span_id",
    "new_trace_id",
    "process_label",
    "render_critical_spans",
    "set_process_label",
    "split_envelope",
    "stamp_envelope",
    "to_chrome",
]


class TraceContext(NamedTuple):
    """A propagatable reference to one live span in one live trace."""

    trace_id: str
    span_id: str


class Frame(NamedTuple):
    """One open span's identity (internal; owned by repro.obs.spans)."""

    name: str
    span_id: str
    trace_id: str
    parent_id: str | None
    parent_name: str | None
    root: bool


_counter = 0
_process_label: str | None = None
#: ``(pid, "pid-<pid>")``: the default label, formatted once per process.
_pid_label: tuple[int, str] = (-1, "")
_stack: list[Frame] = []
#: Trace id owned by the current root span (None outside any span).
_active_trace: str | None = None
#: Remote parent installed by :func:`attached` (cross-process link).
_remote: TraceContext | None = None


def _mint(prefix: str) -> str:
    # pid is read per call, not at import: a forked worker inherits the
    # parent's counter value, and the differing pid keeps ids unique.
    global _counter
    _counter += 1
    return f"{prefix}-{os.getpid():x}-{_counter:x}"


def new_trace_id() -> str:
    """A fresh process-unique trace id (only this module may mint)."""
    return _mint("t")


def new_span_id() -> str:
    """A fresh process-unique span id (only this module may mint)."""
    return _mint("s")


def set_process_label(label: str) -> None:
    """Name this process's track in exported traces (``"coordinator"``,
    ``"shard-3"``, ...).  Defaults to ``pid-<pid>``."""
    global _process_label
    _process_label = label


def process_label() -> str:
    """This process's trace-track label."""
    global _pid_label
    if _process_label is not None:
        return _process_label
    pid = os.getpid()  # per call: a forked child without a label has its own
    if _pid_label[0] != pid:
        _pid_label = (pid, f"pid-{pid}")
    return _pid_label[1]


# ----------------------------------------------------------------------
# the span identity stack (driven by repro.obs.spans)
# ----------------------------------------------------------------------
def push_span(name: str) -> Frame:
    """Open one span: assign its ids and link it to the active trace.

    A nested span inherits the enclosing span's trace and parents to
    it.  A root span adopts the attached remote context when one is
    installed (cross-process continuation), otherwise it starts a new
    trace.
    """
    global _active_trace
    if _stack:
        top = _stack[-1]
        frame = Frame(name, new_span_id(), top.trace_id, top.span_id, top.name, False)
    elif _remote is not None:
        _active_trace = _remote.trace_id
        frame = Frame(name, new_span_id(), _remote.trace_id, _remote.span_id, None, True)
    else:
        trace_id = new_trace_id()
        _active_trace = trace_id
        frame = Frame(name, new_span_id(), trace_id, None, None, True)
    _stack.append(frame)
    return frame


def pop_span(frame: Frame) -> None:
    """Close the most recently opened span (LIFO; spans are context
    managers, so exits always nest)."""
    global _active_trace
    if _stack:
        _stack.pop()
    if not _stack:
        _active_trace = None


def depth() -> int:
    """How many spans are currently open in this process."""
    return len(_stack)


def reset() -> None:
    """Drop all open-span and attachment state (tests/recovery only)."""
    global _active_trace, _remote
    _stack.clear()
    _active_trace = None
    _remote = None


def current_context() -> TraceContext | None:
    """The propagatable context of the innermost open span (or the
    attached remote context when no span is open), if any."""
    if _stack:
        top = _stack[-1]
        return TraceContext(top.trace_id, top.span_id)
    return _remote


# ----------------------------------------------------------------------
# cross-process propagation
# ----------------------------------------------------------------------
class _Attachment:
    """Context manager installing (or explicitly clearing) the remote
    parent that root spans opened inside it will link to."""

    __slots__ = ("ctx", "_previous")

    def __init__(self, ctx: TraceContext | None) -> None:
        self.ctx = ctx
        self._previous: TraceContext | None = None

    def __enter__(self) -> "_Attachment":
        global _remote
        self._previous = _remote
        _remote = self.ctx
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _remote
        _remote = self._previous


def attached(ctx: TraceContext | None) -> _Attachment:
    """Run a block with ``ctx`` as the remote parent of any root span
    opened inside it.  ``attached(None)`` explicitly clears the remote
    parent (a command replayed by recovery must not adopt a stale trace)."""
    return _Attachment(ctx)


def stamp_envelope(command: tuple) -> tuple:
    """The command tuple extended with the current trace context, when
    a trace is active; unchanged otherwise (so disabled runs see
    byte-identical commands)."""
    ctx = current_context()
    if ctx is None:
        return command
    return command + (ctx,)


def split_envelope(command: tuple) -> tuple[tuple, TraceContext | None]:
    """Undo :func:`stamp_envelope`: the base command and its trace
    context (None when the envelope was never stamped)."""
    if command and isinstance(command[-1], TraceContext):
        return command[:-1], command[-1]
    return command, None


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------
def _jsonable(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def to_chrome(records: Iterable[Any]) -> dict:
    """Collected span records as a Chrome trace-event JSON object.

    Each distinct ``process`` label becomes one ``pid`` track (the
    coordinator first, then shards sorted by label), named with a
    ``process_name`` metadata event so Perfetto shows readable tracks.
    Spans are complete (``"ph": "X"``) events on the shared
    ``perf_counter`` timebase; trace/span/parent ids and the span
    attributes ride along in ``args``.
    """
    records = list(records)
    labels: list[str] = []
    for record in records:
        if record.process not in labels:
            labels.append(record.process)
    labels.sort(key=lambda label: (label != "coordinator", label))
    pid_of = {label: pid for pid, label in enumerate(labels)}
    events: list[dict] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": pid,
            "tid": 0,
            "args": {"name": label},
        }
        for label, pid in pid_of.items()
    ]
    for record in records:
        args = {key: _jsonable(value) for key, value in record.attrs.items()}
        args["trace_id"] = record.trace_id
        args["span_id"] = record.span_id
        args["parent_id"] = record.parent_id
        args["error"] = record.error
        if record.error_type:
            args["error_type"] = record.error_type
        events.append(
            {
                "name": record.name,
                "cat": "repro",
                "ph": "X",
                "ts": record.started * 1e6,  # microseconds
                "dur": record.duration * 1e6,
                "pid": pid_of[record.process],
                "tid": 0,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def render_critical_spans(records: Iterable[Any], top: int = 10) -> str:
    """Plain-text top-N critical spans: the longest spans with their
    self time (duration minus direct children) — where the milliseconds
    actually went, without opening a trace viewer."""
    records = list(records)
    child_time: dict[str, float] = {}
    for record in records:
        if record.parent_id:
            child_time[record.parent_id] = (
                child_time.get(record.parent_id, 0.0) + record.duration
            )
    ranked = sorted(records, key=lambda r: r.duration, reverse=True)[: max(top, 0)]
    lines = [
        f"top {len(ranked)} critical spans of {len(records)} collected",
        f"{'TOTAL_MS':>10}  {'SELF_MS':>10}  {'PROCESS':<12} {'NAME':<28} TRACE",
    ]
    for record in ranked:
        self_ms = max(record.duration - child_time.get(record.span_id, 0.0), 0.0)
        name = record.name + (" [ERR]" if record.error else "")
        lines.append(
            f"{record.duration * 1e3:>10.3f}  {self_ms * 1e3:>10.3f}  "
            f"{record.process:<12} {name:<28} {record.trace_id}"
        )
    return "\n".join(lines) + "\n"
