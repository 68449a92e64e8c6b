"""A simulated fleet: the coordinator's :class:`~repro.runtime.fleet.Fleet`
driven over N in-process :class:`~repro.runtime.worker.ShardState` objects.

:class:`SimFleet` is a second driver for the same state of record, built
like :class:`~repro.runtime.coordinator.ShardedMonitor`: the same fleet
operations behind the same three primitives — deliver (a dead worker is
respawned and seeded by the same :func:`~repro.runtime.fleet.on_live`),
request/response, retire — but its workers are plain objects and its
faults come from a schedule.  So the fleet's respawn, rescale and
seeding policy runs without a process.

A :class:`Fault` lands at one named driver boundary:

* ``put`` — before a command is put (the delivery finds the worker dead);
* ``after_put`` — after the put, before the fleet folds the command (the
  command dies in the inbox, unexecuted);
* ``seed`` — after ``k`` of a respawn's ``n`` seed commands;
* ``move`` — between the add and the remove of one rescale move;
* ``poll`` — while a request waits for its response.

It either kills the worker of the shard at that boundary or delays
another shard's inbox: its commands wait until a request drains it.  As
on a dead process's queue, a put onto a dead worker is lost, and a
request to one raises :class:`~repro.runtime.WorkerDied`.
"""

from __future__ import annotations

import pickle
from collections import deque
from typing import Any, Callable, Mapping, NamedTuple

from repro.core.checkpoint import load_monitor, write_checkpoint
from repro.nnt.projection import PAPER_SCHEME
from repro.runtime import WorkerDied
from repro.runtime.fleet import Fleet, on_live
from repro.runtime.worker import CMD_POLL, CMD_REMOVE_STREAM, ShardState, WorkerSpec

BOUNDARIES = ("put", "after_put", "seed", "move", "poll")


class Fault(NamedTuple):
    boundary: str  # one of BOUNDARIES
    crossing: int  # fires at this crossing of the boundary, counted per operation
    kill: bool  # kill the boundary's shard; else delay another shard's inbox
    other: int = 0  # which other shard a delay holds (an index into the others)


class SimWorker:
    """One simulated worker: its shard state (None once killed) and inbox."""

    __slots__ = ("state", "inbox", "held")

    def __init__(self, state: ShardState) -> None:
        self.state: ShardState | None = state
        self.inbox: deque[tuple] = deque()
        self.held = False

    def put(self, command: tuple) -> None:
        """Queue a copy of ``command``, as a process inbox holds the
        bytes pickled at the put; a dead worker's put is lost."""
        if self.state is not None:
            self.inbox.append(pickle.loads(pickle.dumps(command)))

    def drain(self) -> Any:
        """Execute every queued command; the last one's response."""
        response = None
        while self.state is not None and self.inbox:
            response = self.state.execute(self.inbox.popleft())
        return response


class SimFleet:
    """The monitor surface over a :class:`Fleet` and simulated workers."""

    def __init__(
        self,
        queries: Mapping,
        method: str = "dsc",
        depth_limit: int = 3,
        scheme=PAPER_SCHEME,
        num_workers: int = 2,
    ) -> None:
        queries = {query_id: graph.copy() for query_id, graph in queries.items()}
        self.spec = WorkerSpec(queries, method, depth_limit, scheme)
        self.fleet = Fleet(queries, num_workers)
        self.workers: dict[int, SimWorker] = {}
        self.faults: list[Fault] = []
        self.crossings: dict[str, int] = {}
        self.recoveries = 0
        for shard in range(num_workers):
            self._spawn(shard)

    def schedule(self, faults) -> None:
        """Faults for the next operation; crossings count from zero."""
        self.faults = list(faults)
        assert all(fault.boundary in BOUNDARIES for fault in self.faults), self.faults
        self.crossings = {}

    def _cross(self, boundary: str, shard: int) -> None:
        crossing = self.crossings.get(boundary, 0)
        self.crossings[boundary] = crossing + 1
        for fault in [f for f in self.faults if (f.boundary, f.crossing) == (boundary, crossing)]:
            self.faults.remove(fault)
            if fault.kill:
                self.kill(shard)
                continue
            others = [other for other in sorted(self.workers) if other != shard]
            if others:
                self.workers[others[fault.other % len(others)]].held = True

    def kill(self, shard: int) -> None:
        worker = self.workers.get(shard)
        if worker is not None:
            worker.state = None
            worker.inbox.clear()

    # -- the primitives, shaped like ShardedMonitor's --------------------
    def _spawn(self, shard: int) -> int:
        worker = self.workers[shard] = SimWorker(ShardState(shard, self.spec.build_monitor()))
        seed = self.fleet.seed(shard)
        for command in seed:
            self._cross("seed", shard)
            worker.put(command)
            if not worker.held:
                worker.drain()
        return len(seed)

    def _retire(self, shard: int) -> None:
        self.workers.pop(shard, None)

    def recover(self, shard: int) -> None:
        self._retire(shard)
        self.recoveries += 1
        self._spawn(shard)

    def recover_dead(self) -> list[int]:
        dead = [shard for shard in range(self.fleet.shards) if self._live_worker(shard) is None]
        for shard in dead:
            self.recover(shard)
        return dead

    def _live_worker(self, shard: int) -> SimWorker | None:
        worker = self.workers.get(shard)
        return worker if worker is not None and worker.state is not None else None

    def _on_live(self, shard: int, action: Callable[[SimWorker], Any]) -> Any:
        return on_live(shard, action, self._live_worker, self.recover)

    def _submit(self, shard: int, command: tuple) -> None:
        self._cross("put", shard)

        def put(worker: SimWorker) -> None:
            worker.put(command)
            self._cross("after_put", shard)
            if not worker.held:
                worker.drain()

        self._on_live(shard, put)

    def _request(self, shard: int, kind: str) -> tuple:
        def ask(worker: SimWorker) -> tuple:
            if worker.state is not None:
                worker.inbox.append((kind, 0))
            self._cross("poll", shard)
            if worker.state is None:
                raise WorkerDied(f"shard {shard} worker died before answering {kind}")
            worker.held = False
            return worker.drain()

        return self._on_live(shard, ask)

    def _move(self, shard: int, command: tuple) -> None:
        if command[0] == CMD_REMOVE_STREAM:
            self._cross("move", shard)
        self._submit(shard, command)

    # -- the monitor surface ----------------------------------------------
    def add_stream(self, stream_id, initial=None) -> None:
        self.fleet.add_stream(self._submit, stream_id, initial)

    def remove_stream(self, stream_id) -> None:
        self.fleet.remove_stream(self._submit, stream_id)

    def apply(self, stream_id, update) -> None:
        self.fleet.apply(self._submit, stream_id, update)

    def register_query(self, query_id, query) -> None:
        self.fleet.register_query(self._submit, query_id, query)

    def deregister_query(self, query_id) -> None:
        self.fleet.deregister_query(self._submit, query_id)

    def rescale(self, num_workers: int) -> int:
        if self.fleet.settled_at(num_workers):
            return 0
        return self.fleet.rescale(num_workers, self._spawn, self._move, self._retire)

    def matches(self) -> set:
        aggregated: set = set()
        for shard in range(self.fleet.shards):
            aggregated.update(self._request(shard, CMD_POLL)[3])
        return aggregated

    def stats(self) -> dict:
        return {"streams_per_shard": self.fleet.streams_per_shard()}

    def events(self) -> list:
        return self.fleet.events(self.matches())

    def graph(self, stream_id):
        return self.fleet.graphs[stream_id]

    def stream_ids(self) -> list:
        return list(self.fleet.streams)

    def query_ids(self) -> list:
        return list(self.fleet.queries)

    def checkpoint(self, directory) -> dict:
        spec = self.spec
        return write_checkpoint(
            directory,
            self.fleet.queries,
            self.fleet.graphs,
            spec.method,
            spec.depth_limit,
            spec.scheme,
        )

    @classmethod
    def restore(cls, directory, **options) -> "SimFleet":
        return load_monitor(directory, cls, **options)

    def close(self) -> None:
        self.workers.clear()
