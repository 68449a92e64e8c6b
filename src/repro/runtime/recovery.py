"""The fleet's failure counters.

Recovery needs nothing on disk: a dead worker is respawned from the
birth spec and re-sent the coordinator's state of record
(:mod:`repro.runtime.coordinator`), at a cost that depends on the live
graphs, never on how long the streams have run.  A checkpoint is that
same state written out (:mod:`repro.core.checkpoint`), for the one
death a respawn cannot cover: the coordinator's own.
"""

from __future__ import annotations


class RecoveryLog:
    """Coordinator-side counters describing the fleet's failure history."""

    __slots__ = ("checkpoints", "recoveries", "replayed_commands")

    def __init__(self) -> None:
        #: ``checkpoint()`` calls that committed an export.
        self.checkpoints = 0
        self.recoveries = 0
        #: Commands sent to respawned workers to rebuild their state.
        self.replayed_commands = 0

    def summary(self) -> dict[str, int]:
        """Plain-dict snapshot for ``stats()`` aggregation."""
        return {name: getattr(self, name) for name in self.__slots__}
