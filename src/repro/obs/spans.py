"""Structured trace spans with monotonic timing and a bounded buffer.

``with span("nnt.batch_update", stream=sid): ...`` times the enclosed
block with :func:`time.perf_counter`, tracks nesting (each record knows
its depth and enclosing span name), appends a :class:`SpanRecord` to a
bounded in-memory ring buffer — old records fall off the far end, so a
long-lived monitor cannot leak — and folds the duration into the
``"<name>.seconds"`` histogram of the active registry, which is how the
per-stage latency distributions reach exposition and the runtime's
merged fleet view.

When instrumentation is disabled, :func:`span` returns a shared no-op
context manager: no timer read, no allocation beyond the call itself.

Every span also carries *trace identity* — a trace id shared by the
whole tree it belongs to, its own span id, and its parent's span id —
assigned by :mod:`repro.obs.trace` (the only minting site).
Root spans adopt the remote context installed by
:func:`repro.obs.trace.attached` when one is present, which is how a
worker-side ``monitor.apply`` span joins the coordinator-side trace of
the ``apply`` call that caused it.

A span closed by a propagating exception records ``error=True`` plus
the exception type name, and its duration lands in a separate
``{error="<TypeName>"}``-labelled ``"<name>.seconds"`` histogram — so a
failing apply is distinguishable from a merely slow one in both the
trace view and the metrics.

The span stack is process-local and deliberately not thread-aware:
everything outside :mod:`repro.runtime` is single-threaded,
and the runtime parallelises with *processes*, each carrying its own
copy of this module's state.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Iterator, NamedTuple

from . import state, trace
from .instruments import Registry

DEFAULT_SPAN_CAPACITY = 2048

_ring: deque["SpanRecord"] = deque(maxlen=DEFAULT_SPAN_CAPACITY)


class SpanRecord(NamedTuple):
    """One finished span (a tuple: no ``__dict__``, as every process
    keeps a ring of them)."""

    name: str
    started: float  # perf_counter seconds at entry (monotonic, process-local)
    duration: float  # seconds
    depth: int  # 0 = top level at close time
    parent: str | None  # enclosing span name, if any
    error: bool  # closed by an exception propagating through?
    trace_id: str  # shared by every span of one logical operation
    span_id: str  # this span's own id
    parent_id: str | None  # parent span id (may live in another process)
    process: str  # trace track label (coordinator / shard-N / pid-N)
    error_type: str | None  # exception type name when error is True
    attrs: dict[str, Any]


class _LiveSpan:
    """Active span handle (returned by :func:`span` when enabled)."""

    __slots__ = ("name", "attrs", "registry", "started", "duration", "frame")

    def __init__(self, name: str, attrs: dict[str, Any], registry: Registry) -> None:
        self.name = name
        self.attrs = attrs
        self.registry = registry
        self.started = 0.0
        self.duration = 0.0
        self.frame: trace.Frame | None = None

    def __enter__(self) -> "_LiveSpan":
        self.frame = trace.push_span(self.name)
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        self.duration = time.perf_counter() - self.started
        frame = self.frame
        assert frame is not None
        trace.pop_span(frame)
        error = exc_type is not None
        error_type = getattr(exc_type, "__name__", None) if error else None
        _ring.append(
            SpanRecord(
                name=self.name,
                started=self.started,
                duration=self.duration,
                depth=trace.depth(),
                parent=frame.parent_name,
                error=error,
                trace_id=frame.trace_id,
                span_id=frame.span_id,
                parent_id=frame.parent_id,
                process=trace.process_label(),
                error_type=error_type,
                attrs=self.attrs,
            )
        )
        if error:
            histogram = self.registry.histogram(
                f"{self.name}.seconds", labels={"error": error_type or "Exception"}
            )
        else:
            histogram = self.registry.histogram(f"{self.name}.seconds")
        histogram.observe(self.duration)


class _NoopSpan:
    """Shared do-nothing span (returned when instrumentation is off)."""

    __slots__ = ()
    duration = 0.0

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NOOP = _NoopSpan()


def span(name: str, **attrs: Any) -> _LiveSpan | _NoopSpan:
    """A context manager timing one named stage.

    Keyword arguments become the span's attributes (stream ids, batch
    sizes — anything cheap and picklable).  Avoid computing expensive
    attribute values at the call site: they are evaluated even when
    instrumentation is disabled.
    """
    if not state.ENABLED:
        return _NOOP
    from .registry import get_registry  # late import: avoids a module cycle

    return _LiveSpan(name, attrs, get_registry())


def spans() -> list[SpanRecord]:
    """Snapshot of the ring buffer, oldest first."""
    return list(_ring)


def clear_spans() -> None:
    """Drop every buffered span record."""
    _ring.clear()


def last_span() -> SpanRecord | None:
    """The most recently closed span, or None (O(1), no snapshot copy)."""
    return _ring[-1] if _ring else None


def set_span_capacity(capacity: int) -> None:
    """Resize the ring buffer (keeps the newest records that fit)."""
    global _ring
    if capacity < 1:
        raise ValueError("span capacity must be >= 1")
    _ring = deque(_ring, maxlen=capacity)


def span_depth() -> int:
    """How many spans are currently open (0 outside any span)."""
    return trace.depth()


def iter_spans(name: str | None = None) -> Iterator[SpanRecord]:
    """Buffered records, optionally filtered by span name."""
    for record in _ring:
        if name is None or record.name == name:
            yield record
