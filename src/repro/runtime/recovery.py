"""Shard snapshot exports and the fleet's failure counters.

Recovery itself needs nothing from this module but the counters: the
coordinator's state of record is one current graph per stream plus the
live query set (:mod:`repro.runtime.coordinator`), and a dead worker is
respawned from the birth spec and re-sent exactly that — a cost that
depends on the live graphs, never on how long the streams have run or
on when a checkpoint was last taken.

:class:`CheckpointStore` lays the *exports* ``checkpoint()`` writes out
on disk as ``<root>/shard_<k>/ckpt_<seq>/`` (each one a plain
:mod:`repro.core.checkpoint` directory written *by the worker that
owns the shard*, loadable with
:func:`~repro.core.checkpoint.load_monitor`), with a ``LATEST`` pointer
that is only advanced after the worker acknowledges the snapshot — a
worker killed mid-save leaves a dangling ``ckpt_<seq>`` directory,
never a pointer to an incomplete one.  Nothing in the runtime reads an
export back.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

LATEST = "LATEST"


class CheckpointStore:
    """On-disk layout and pointer management for shard snapshots."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def shard_dir(self, shard_id: int) -> Path:
        """The directory holding one shard's snapshots and pointer."""
        return self.root / f"shard_{shard_id}"

    def prepare(self, shard_id: int, sequence: int) -> Path:
        """The directory a new snapshot should be written into (created
        empty; the owning worker fills it)."""
        target = self.shard_dir(shard_id) / f"ckpt_{sequence}"
        target.mkdir(parents=True, exist_ok=True)
        return target

    def commit(self, shard_id: int, sequence: int) -> Path:
        """Advance the shard's ``LATEST`` pointer to ``ckpt_<sequence>``
        — called only after the worker acknowledged the save."""
        target = self.shard_dir(shard_id) / f"ckpt_{sequence}"
        pointer = self.shard_dir(shard_id) / LATEST
        # A one-line pointer file write is atomic enough for our
        # single-coordinator setup: the worker never touches it.
        pointer.write_text(f"{sequence}\n", encoding="utf-8")
        return target

    def invalidate(self, shard_id: int) -> None:
        """Retract the shard's ``LATEST`` pointer (idempotent).

        Called when a rescale retires a shard: its streams have moved,
        so its last export no longer describes a slice of the fleet.
        Snapshot directories stay on disk (they are cheap and useful
        forensics); only the pointer — the thing a reader trusts —
        goes away.
        """
        pointer = self.shard_dir(shard_id) / LATEST
        try:
            pointer.unlink()
        except FileNotFoundError:
            pass


@dataclass
class RecoveryLog:
    """Coordinator-side counters describing the fleet's failure history."""

    checkpoints: int = 0
    recoveries: int = 0
    #: Commands sent to respawned workers to rebuild their state.
    replayed_commands: int = 0

    def summary(self) -> dict[str, int]:
        """Plain-dict snapshot for ``stats()`` aggregation."""
        return {
            "checkpoints": self.checkpoints,
            "recoveries": self.recoveries,
            "replayed_commands": self.replayed_commands,
        }
