"""Measurement primitives: spans, percentiles, process accounting.

Timing uses ``time.perf_counter`` only (lint rule RP006).  Spans are
recorded from the benchmark's own files around calls into each layer's
public functions; they are kept in memory and written out at exit.
"""

from __future__ import annotations

import gc
import math
import os
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import ContextManager, Iterator, Sequence

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory span recorder: ``{name, start, end, parent, rep, gc_s}``.

    ``rep`` tags which system and chunk of the traced run produced the
    span (``"inproc#3"``).  A span's parent is the span open when it
    started, so a reader of ``trace.json`` can take a layer's *self
    time*: its span minus the part its child spans cover.

    ``gc_s`` is the time the garbage collector ran inside the span
    (its children included), taken from ``gc.callbacks`` while
    :meth:`collecting_gc` is active.  A full collection of a large heap
    costs as much as many ticks and lands in whichever span happens to
    trip the allocation threshold, so every duration this class reports
    is the span *minus* its collector time; :meth:`gc_total` reports
    that time by itself.
    """

    def __init__(self) -> None:
        self.system = ""
        self.chunk = 0
        self.spans: list[list] = []
        self._open: list[int] = []
        self._gc_started: float | None = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), 0.0, parent, self.system, self.chunk, 0.0]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            pause = time.perf_counter() - self._gc_started
            self._gc_started = None
            for index in self._open:
                self.spans[index][6] += pause

    @contextmanager
    def collecting_gc(self) -> Iterator[None]:
        """Charge collector pauses to the spans open when they happen."""
        self._gc_started = None
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)

    def _select(self, name: str, system: str, chunk: int | None) -> list[list]:
        return [
            s for s in self.spans
            if s[0] == name and s[4] == system and (chunk is None or s[5] == chunk)
        ]

    def durations(self, name: str, system: str, chunk: int | None = None) -> list[float]:
        """Collector-free duration of every ``name`` span of one system
        (of one chunk, when given), in span order."""
        return [s[2] - s[1] - s[6] for s in self._select(name, system, chunk)]

    def total(self, name: str, system: str, chunk: int | None = None) -> float:
        return sum(self.durations(name, system, chunk))

    def gc_total(self, name: str, system: str, chunk: int | None = None) -> float:
        return sum(s[6] for s in self._select(name, system, chunk))

    def to_json(self) -> list[dict]:
        return [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
             "rep": f"{s[4]}#{s[5]}", "gc_s": s[6]}
            for s in self.spans
        ]


class _NullTracer(Tracer):
    """Tracing off: every call site gets the same no-op context."""

    _noop = nullcontext()

    def span(self, name: str) -> ContextManager[None]:  # type: ignore[override]
        return self._noop

    def collecting_gc(self) -> ContextManager[None]:  # type: ignore[override]
        return self._noop


NULL_TRACER = _NullTracer()


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (which must be non-empty)."""
    ranked = sorted(values)
    return ranked[max(1, math.ceil(len(ranked) * pct / 100)) - 1]


def supported_tail(samples: int) -> int:
    """Highest of p99/p95/p90 with at least ten samples beyond it
    (0 when not even p90 is supported)."""
    for pct in (99, 95, 90):
        if samples * (100 - pct) / 100 >= 10:
            return pct
    return 0


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python spin.  Flags a slow host
    phase next to a result; never used to normalise one."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return (time.perf_counter() - start) * 1e3


# ----------------------------------------------------------------------
# process accounting (Linux /proc)
# ----------------------------------------------------------------------
def cpu_seconds(pids: Sequence[int]) -> float:
    """User + system CPU consumed so far by the given live processes."""
    total = 0.0
    for pid in pids:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
    return total


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Sum of ``VmHWM`` over the given live processes, in MB."""
    total_kb = 0
    for pid in pids:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def is_alive(pid: int) -> bool:
    """Does ``pid`` still name a running (non-zombie) process?"""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"
