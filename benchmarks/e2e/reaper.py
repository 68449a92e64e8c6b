"""Leave no process behind: adopt every orphaned descendant and wait for it.

A process the benchmark starts can outlive its parent without anyone
meaning it to.  The stdlib's shared-memory ``resource_tracker`` is the
standing case: whoever first touches a segment (the coordinator of a
``ShardedMonitor(shm=True)``, so the runner itself) spawns one, and it
exits only *after* that process has gone, when its pipe reads EOF — so
it is still running when the runner's exit status is collected.  A lane
killed on a timeout orphans its workers the same way.

The command (``run.py``) therefore measures in a child and stays behind
as a *subreaper* (``prctl(PR_SET_CHILD_SUBREAPER)``, Linux ≥ 3.4): every
orphan below it is re-parented to it instead of to init, and
:func:`reap_descendants` waits until the last one has ended, killing
what will not end by itself.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from pathlib import Path

_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> bool:
    """Make this process the reaper of all its descendants."""
    libc = ctypes.CDLL(None, use_errno=True)
    return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0


def running_children() -> list[int]:
    """Pids whose parent is this process and that have not ended yet."""
    me, found = os.getpid(), []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        if int(fields[1]) == me and fields[0] != "Z":
            found.append(int(entry.name))
    return found


def reap_descendants(grace: float = 10.0) -> int:
    """Wait for every child of this process, adopted ones included,
    until none is left.  Those still running after ``grace`` seconds are
    killed (their own children are then adopted and waited for in turn).
    Returns how many had to be killed — each one is a failure."""
    deadline = time.perf_counter() + grace
    killed = 0
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed  # no child left, running or zombie
        if pid:
            continue
        if time.perf_counter() >= deadline:
            for straggler in running_children():
                try:
                    os.kill(straggler, signal.SIGKILL)
                    killed += 1
                except ProcessLookupError:
                    pass
            deadline = time.perf_counter() + grace
        time.sleep(0.005)
