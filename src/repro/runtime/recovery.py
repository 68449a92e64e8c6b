"""The fleet's failure counters.

Recovery needs nothing on disk: a dead worker is respawned from the
birth spec and re-sent the coordinator's state of record
(:mod:`repro.runtime.coordinator`), at a cost that depends on the live
graphs, never on how long the streams have run.  A checkpoint is that
same state written out (:mod:`repro.core.checkpoint`), for the one
death a respawn cannot cover: the coordinator's own.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass
class RecoveryLog:
    """Coordinator-side counters describing the fleet's failure history."""

    #: ``checkpoint()`` calls that committed an export.
    checkpoints: int = 0
    recoveries: int = 0
    #: Commands sent to respawned workers to rebuild their state.
    replayed_commands: int = 0

    def summary(self) -> dict[str, int]:
        """Plain-dict snapshot for ``stats()`` aggregation."""
        return asdict(self)
