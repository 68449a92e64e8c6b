"""Processes and descriptors as the kernel lists them in ``/proc``.

A forked worker is no ``multiprocessing`` child, so
``multiprocessing.active_children()`` never sees one: a leak check that
asks it passes whatever leaks.  These read the process table instead.
Its pipes are raw descriptors, which warn of no leak (no object owns
them), so :func:`fds` lists the descriptors this process holds.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

PROC = Path("/proc")


def _stat(pid: int) -> list[str] | None:
    """The fields of ``/proc/<pid>/stat`` after the command name (state
    first, then the parent pid); None once the pid is gone."""
    try:
        raw = (PROC / str(pid) / "stat").read_text()
    except OSError:
        return None
    return raw.rsplit(")", 1)[1].split()


def children(parent: int | None = None) -> set[int]:
    """Pids whose parent is ``parent`` (this process by default), running
    or exited and not yet reaped.  The shared-memory resource tracker is
    left out: it is an exec'd helper the first payload ring starts, and it
    outlives every monitor by design."""
    parent = os.getpid() if parent is None else parent
    found = set()
    for entry in PROC.iterdir():
        if not entry.name.isdigit():
            continue
        fields = _stat(int(entry.name))
        if fields is None or int(fields[1]) != parent:
            continue
        try:
            command = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        if b"resource_tracker" not in command:
            found.add(int(entry.name))
    return found


def exited(pid: int) -> bool:
    """Has ``pid`` exited (gone, or a zombie its parent has not reaped)?"""
    fields = _stat(pid)
    return fields is None or fields[0] in ("Z", "X")


def wait_exited(pids, seconds: float) -> set[int]:
    """Wait up to ``seconds`` for every pid to exit; the ones still running."""
    deadline = time.monotonic() + seconds
    running = {pid for pid in pids if not exited(pid)}
    while running and time.monotonic() < deadline:
        time.sleep(0.02)
        running = {pid for pid in running if not exited(pid)}
    return running


def threads(pid: int) -> int:
    """The threads ``pid`` runs right now."""
    return len(os.listdir(PROC / str(pid) / "task"))


def fds() -> set[int]:
    """The file descriptors this process holds open right now."""
    return {int(fd) for fd in os.listdir(PROC / "self" / "fd")}
