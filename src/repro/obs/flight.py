"""Crash flight recorder: a bounded journal of recent operational events.

Post-mortem debugging of a SIGKILLed worker has nothing to work with —
the registry dies with the process and the span ring is in its heap.
The flight recorder fixes that with two complementary channels:

* an **in-memory ring** of the last ``capacity`` events (refusals and
  per-command worker notes), cheap enough to keep always-on;
* an optional **eagerly-flushed JSONL journal** on disk.  Every
  :meth:`FlightRecorder.note` appends one line and flushes, so even a
  SIGKILL — which runs no handlers — leaves the journal readable up to
  the final pre-crash event.  The journal rotates to ``<path>.old``
  once it reaches four times the ring capacity, bounding disk usage
  while :meth:`FlightRecorder.read` stitches the tail back together.

For crashes that *do* unwind (a raising worker loop) or on demand
(SIGUSR2, ``repro flight signal``), :meth:`FlightRecorder.dump` writes
a full snapshot — events, the span ring, and the registry summary — as
one atomic JSON document.

Wall-clock timestamps are deliberate here (clock reads are confined to
``repro.obs``): flight dumps are correlated across processes and with
external logs, where monotonic clocks are meaningless.
"""

from __future__ import annotations

import json
import os
import signal
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable, Iterable

from . import state
from .registry import counter
from .spans import spans
from .trace import process_label

__all__ = [
    "DEFAULT_FLIGHT_CAPACITY",
    "FlightRecorder",
    "install_signal_dump",
]

DEFAULT_FLIGHT_CAPACITY = 256


class FlightRecorder:
    """Bounded event ring with an optional eagerly-flushed disk journal."""

    def __init__(
        self,
        path: str | os.PathLike[str] | None = None,
        capacity: int = DEFAULT_FLIGHT_CAPACITY,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if capacity < 1:
            raise ValueError("flight capacity must be >= 1")
        self.capacity = capacity
        self._clock = clock
        self._ring: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._seq = 0
        self._lines = 0
        self.path = Path(path) if path is not None else None
        self._file = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = self.path.open("a", encoding="utf-8")

    # -- recording ---------------------------------------------------------

    def note(self, kind: str, **fields: Any) -> dict[str, Any] | None:
        """Record one event; no-op while instrumentation is disabled."""
        if not state.ENABLED:
            return None
        self._seq += 1
        event = {"seq": self._seq, "wall": self._clock(), "kind": kind, **fields}
        self._ring.append(event)
        counter("flight.events").inc()
        if self._file is not None:
            self._file.write(json.dumps(event, default=str) + "\n")
            self._file.flush()
            self._lines += 1
            if self._lines >= self.capacity * 4:
                self._rotate()
        return event

    def _rotate(self) -> None:
        assert self._file is not None and self.path is not None
        self._file.close()
        os.replace(self.path, self.path.with_name(self.path.name + ".old"))
        self._file = self.path.open("a", encoding="utf-8")
        self._lines = 0

    def events(self) -> list[dict[str, Any]]:
        """Snapshot of the in-memory ring, oldest first."""
        return list(self._ring)

    def close(self) -> None:
        """Close the journal file; the in-memory ring stays readable."""
        if self._file is not None:
            self._file.close()
            self._file = None

    # -- snapshots ---------------------------------------------------------

    def dump(self, path: str | os.PathLike[str], reason: str) -> Path:
        """Write a full flight snapshot atomically; returns the path."""
        from .registry import get_registry  # late: avoid import-order surprises

        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "reason": reason,
            "pid": os.getpid(),
            "process": process_label(),
            "dumped_at": self._clock(),
            "events": self.events(),
            # Records are NamedTuples, which json writes as arrays:
            # each span is written as an object explicitly.
            "spans": [record._asdict() for record in spans()],
            "metrics": get_registry().summary(),
        }
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_text(json.dumps(doc, default=str, indent=2), encoding="utf-8")
        os.replace(tmp, target)
        return target

    # -- reading back ------------------------------------------------------

    @staticmethod
    def read(path: str | os.PathLike[str]) -> Any:
        """Load a journal (.jsonl, merging its rotated ``.old`` tail) or a
        dump document (.json) back into Python objects."""
        source = Path(path)
        if source.suffix == ".jsonl":
            events: list[dict[str, Any]] = []
            rotated = source.with_name(source.name + ".old")
            for part in (rotated, source):
                if not part.exists():
                    continue
                for line in part.read_text(encoding="utf-8").splitlines():
                    if line.strip():
                        events.append(json.loads(line))
            return events
        return json.loads(source.read_text(encoding="utf-8"))


def install_signal_dump(
    recorder: FlightRecorder,
    directory: str | os.PathLike[str],
    label: str | None = None,
) -> bool:
    """Dump the flight snapshot on SIGUSR2.

    Returns False where signals cannot be installed (non-main thread,
    platforms without SIGUSR2) so callers can degrade gracefully.
    """
    name = label if label is not None else process_label()
    target = Path(directory) / f"flight-{name}-sigusr2.json"

    def _handler(signum: int, frame: Any) -> None:
        recorder.dump(target, reason="sigusr2")

    try:
        signal.signal(signal.SIGUSR2, _handler)
    except (ValueError, AttributeError, OSError):
        return False
    return True
