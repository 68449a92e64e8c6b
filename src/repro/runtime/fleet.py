"""The sharded fleet's state of record, and every decision made from it.

A :class:`Fleet` is what the coordinator knows, with no process, queue
or ring in it: which shard owns each stream, each stream's current
graph, the birth and live query sets, and the counters ``stats()``
reports.  Because streams are independent (Definition 2.8), that is all
a worker's filter state is a function of.

Its decisions are plain functions of that state: the shard a new
stream goes to (the consistent-hash :attr:`Fleet.router`), the seed a
respawned worker is sent (:meth:`Fleet.seed`) and the streams a rescale
moves (:meth:`Fleet.moves`).  Its operations hand ``(shard, command)``
pairs to a driver's ``deliver`` primitive and change the state only
once ``deliver`` has returned.

**Send, then fold.**  A ``deliver`` that finds the shard's worker dead
respawns it, seeds it from :meth:`Fleet.seed` — which reads only folded
state — and then puts the command.  So a respawn is seeded without the
command in flight, and the command lands on it exactly once.  A
``deliver`` that raises leaves the state as it was.

:class:`~repro.runtime.coordinator.ShardedMonitor` is the production
driver (worker processes, bounded queues, payload rings).  The test
suite's simulated fleet drives the same state over in-process
:class:`~repro.runtime.worker.ShardState` objects, with faults injected
at the driver's boundaries.
"""

from __future__ import annotations

from typing import Callable, Mapping, TypeVar

from ..core.monitor import MatchEvent, diff_polls
from ..graph.labeled_graph import LabeledGraph
from ..graph.operations import EdgeChange, GraphChangeOperation, apply_rows, check_batch
from ..join.base import Pair, QueryId, StreamId
from .router import ShardRouter
from .worker import (
    CMD_ADD_STREAM,
    CMD_APPLY,
    CMD_DEREGISTER_QUERY,
    CMD_REGISTER_QUERY,
    CMD_REMOVE_STREAM,
    WorkerDied,
)

#: A driver's delivery primitive: put one command on one shard's inbox.
#: It takes what it sends before it returns (a process inbox pickles on
#: the caller's thread), so the fleet sends its graphs of record as they are.
Deliver = Callable[[int, tuple], None]

#: Respawns one call may make of one shard: a respawn that dies while it
#: is seeded is respawned again, and a worker that keeps dying raises.
RESPAWNS_PER_CALL = 3

Worker = TypeVar("Worker")
Result = TypeVar("Result")


def on_live(
    shard: int,
    action: Callable[[Worker], Result],
    live_worker: Callable[[int], Worker | None],
    respawn: Callable[[int], None],
) -> Result:
    """``action`` on ``shard``'s worker (``live_worker`` returns it, or
    None when it is dead or missing).  A worker found dead, before the
    action or by it (:class:`~repro.runtime.worker.WorkerDied`), is
    respawned and seeded (``respawn``), and so is each fresh respawn that
    dies in turn, up to :data:`RESPAWNS_PER_CALL`; the death after that
    raises :class:`~repro.runtime.worker.WorkerDied`."""
    respawns = 0
    while True:
        worker = live_worker(shard)
        if worker is not None:
            try:
                return action(worker)
            except WorkerDied:
                if respawns == RESPAWNS_PER_CALL:
                    raise
        elif respawns == RESPAWNS_PER_CALL:
            raise WorkerDied(f"shard {shard} worker died after {respawns} respawns")
        respawn(shard)
        respawns += 1


class RecoveryLog:
    """The fleet's failure counters (``stats()["recovery"]``)."""

    __slots__ = ("checkpoints", "recoveries", "replayed_commands")

    def __init__(self) -> None:
        #: ``checkpoint()`` calls that committed an export.
        self.checkpoints = 0
        self.recoveries = 0
        #: Seed commands sent to respawned workers.
        self.replayed_commands = 0

    def summary(self) -> dict[str, int]:
        """Plain-dict snapshot for ``stats()``."""
        return {name: getattr(self, name) for name in self.__slots__}


class Fleet:
    """The state of record of a fleet of ``shards`` workers."""

    __slots__ = (
        "birth",
        "queries",
        "router",
        "shards",
        "streams",
        "graphs",
        "registrations",
        "deregistrations",
        "accepted_batches",
        "since_checkpoint",
        "rescales",
        "last_poll",
    )

    def __init__(self, birth: Mapping[QueryId, LabeledGraph], num_shards: int) -> None:
        #: The query set every worker is born with.  A birth pattern stays
        #: the same object in :attr:`queries` while it is registered, so
        #: :meth:`seed` tells it from a re-registered one by identity.
        self.birth = birth
        self.queries: dict[QueryId, LabeledGraph] = dict(birth)
        #: Placement of new streams; :attr:`streams` is the owner of record.
        self.router = ShardRouter(num_shards)
        #: Shard ids in use are ``range(shards)``.
        self.shards = num_shards
        self.streams: dict[StreamId, int] = {}
        self.graphs: dict[StreamId, LabeledGraph] = {}
        self.registrations = 0
        self.deregistrations = 0
        self.accepted_batches = 0
        self.since_checkpoint = 0
        self.rescales = 0
        self.last_poll: set[Pair] = set()

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------
    def seed(self, shard: int) -> list[tuple]:
        """The commands that bring a worker just born from :attr:`birth`
        to the state of record of ``shard``: the net query churn since
        birth, then ``add_stream`` with the current graph of every stream
        the shard owns.  Their number depends on the live state, not on
        how long the streams have run."""
        birth, live = self.birth, self.queries
        commands: list[tuple] = [
            (CMD_DEREGISTER_QUERY, query_id)
            for query_id in birth
            if live.get(query_id) is not birth[query_id]
        ]
        commands += [
            (CMD_REGISTER_QUERY, query_id, graph)
            for query_id, graph in live.items()
            if birth.get(query_id) is not graph
        ]
        commands += [
            (CMD_ADD_STREAM, stream_id, self.graphs[stream_id])
            for stream_id, owner in self.streams.items()
            if owner == shard
        ]
        return commands

    def streams_per_shard(self) -> dict[int, int]:
        """How many streams each shard slot owns."""
        counts = dict.fromkeys(range(self.shards), 0)
        for shard in self.streams.values():
            counts[shard] += 1
        return counts

    def settled_at(self, target: int) -> bool:
        """Is a rescale to ``target`` a no-op?  Only at ``target`` shards
        with every stream on its router's shard: a grow that failed in
        its move phase already counts ``target`` shards, and a retry
        must still move what it left behind."""
        return target == self.shards and not self.moves(self.router)

    def moves(self, router: ShardRouter) -> list[tuple[StreamId, int, int]]:
        """``(stream, origin, destination)`` for every stream whose owner
        ``router`` changes, sorted by ``str(stream)`` so every run hands
        streams over in the same order."""
        plan = []
        for stream_id in sorted(self.streams, key=str):
            origin, destination = self.streams[stream_id], router.shard_for(stream_id)
            if origin != destination:
                plan.append((stream_id, origin, destination))
        return plan

    # ------------------------------------------------------------------
    # operations: deliver first, fold after
    # ------------------------------------------------------------------
    def add_stream(
        self, deliver: Deliver, stream_id: StreamId, initial: LabeledGraph | None
    ) -> None:
        """Send ``add_stream`` to the router's shard, then record the graph."""
        if stream_id in self.streams:
            raise ValueError(f"stream {stream_id!r} is already monitored")
        shard = self.router.shard_for(stream_id)
        graph = initial.copy() if initial is not None else LabeledGraph()
        deliver(shard, (CMD_ADD_STREAM, stream_id, graph))
        self.streams[stream_id] = shard
        self.graphs[stream_id] = graph

    def remove_stream(self, deliver: Deliver, stream_id: StreamId) -> None:
        """Send ``remove_stream`` to the owner, then forget the stream."""
        deliver(self.streams[stream_id], (CMD_REMOVE_STREAM, stream_id))
        del self.streams[stream_id]
        del self.graphs[stream_id]
        self.last_poll = {pair for pair in self.last_poll if pair[0] != stream_id}

    def apply(
        self, deliver: Deliver, stream_id: StreamId, update: GraphChangeOperation | EdgeChange
    ) -> None:
        """Check a batch against the stream's graph
        (:func:`~repro.graph.operations.check_batch`: a refused batch
        raises :class:`~repro.graph.GraphError` with nothing sent), send
        it, then fold in the rows the check decoded."""
        graph = self.graphs[stream_id]
        checked = check_batch(graph, update)
        deliver(self.streams[stream_id], (CMD_APPLY, stream_id, update))
        apply_rows(graph, *checked)
        self.accepted_batches += 1
        self.since_checkpoint += 1

    def register_query(
        self, deliver: Deliver, query_id: QueryId, query: LabeledGraph
    ) -> None:
        """Send the pattern to every shard, then make it live."""
        if query_id in self.queries:
            raise ValueError(f"query {query_id!r} is already monitored")
        # Recorded and sent as one copy nothing here mutates.
        query = query.copy()
        for shard in range(self.shards):
            deliver(shard, (CMD_REGISTER_QUERY, query_id, query))
        self.queries[query_id] = query
        self.registrations += 1

    def deregister_query(self, deliver: Deliver, query_id: QueryId) -> None:
        """Send the retirement to every shard, then drop the pattern."""
        if query_id not in self.queries:
            raise KeyError(f"query {query_id!r} is not monitored")
        for shard in range(self.shards):
            deliver(shard, (CMD_DEREGISTER_QUERY, query_id))
        del self.queries[query_id]
        self.deregistrations += 1
        self.last_poll = {pair for pair in self.last_poll if pair[1] != query_id}

    def rescale(
        self,
        target: int,
        spawn: Callable[[int], object],
        deliver: Deliver,
        retire: Callable[[int], None],
    ) -> int:
        """Grow or shrink to ``target`` shards; returns the streams moved.

        New shards are spawned (and seeded) first.  A spawn that fails
        retires every shard this call spawned before the error goes on,
        so the fleet is left as it was.  Each stream whose owner changes
        is then added on its new shard from its graph of record and
        removed from its old one, which owns it until the remove is out
        or has failed: a respawn of either in between is seeded right, and
        a remove that failed because the old owner died leaves the stream
        with the one shard that holds it.  Surplus shards are retired
        last, once nothing is left on them.
        """
        source = self.shards
        try:
            for shard in range(source, target):
                spawn(shard)
        except BaseException:
            for shard in range(source, target):
                retire(shard)
            raise
        self.shards = max(source, target)
        self.router = ShardRouter(target)
        plan = self.moves(self.router)
        for stream_id, origin, destination in plan:
            deliver(destination, (CMD_ADD_STREAM, stream_id, self.graphs[stream_id]))
            try:
                deliver(origin, (CMD_REMOVE_STREAM, stream_id))
            finally:
                self.streams[stream_id] = destination
        for shard in range(target, source):
            retire(shard)
        self.shards = target
        self.rescales += 1
        return len(plan)

    def events(self, current: set[Pair]) -> list[MatchEvent]:
        """Transitions from the previous poll to ``current``, which becomes
        the baseline of the next."""
        events = diff_polls(self.last_poll, current)
        self.last_poll = current
        return events
