"""The fleet's policy — respawn seed, rescale plan, send-then-fold —
checked with no process at all.

Part one pins :class:`~repro.runtime.fleet.Fleet`'s decisions directly.
Part two is a Hypothesis stateful machine that drives the simulated fleet
(``tests/sim_fleet.py``) through stream and query churn, valid and
refused batches, rescales and checkpoint/restore, with a kill or a
queue delay landing at a named driver boundary in every step; after
every step ``matches()``, ``events()`` and every ``graph(sid)`` equal an
in-process :class:`~repro.core.StreamMonitor`'s, and every worker holds
exactly its shard of the state of record.  The tier-1 profile runs in
the default suite; ``-m slow`` runs a longer one.
"""

from __future__ import annotations

import random
import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.core.monitor import StreamMonitor, diff_polls
from repro.graph import EdgeChange, GraphChangeOperation, GraphError, LabeledGraph
from repro.runtime import WorkerDied
from repro.runtime.fleet import RESPAWNS_PER_CALL, Fleet
from repro.runtime.router import ShardRouter
from repro.runtime.worker import (
    CMD_ADD_STREAM,
    CMD_DEREGISTER_QUERY,
    CMD_REGISTER_QUERY,
    CMD_REMOVE_STREAM,
)

from .sim_fleet import Fault, SimFleet

LABELS = "ABC"


def label(vertex: int) -> str:
    return LABELS[vertex % len(LABELS)]


def pattern(*edges: tuple[int, int]) -> LabeledGraph:
    vertices = sorted({vertex for edge in edges for vertex in edge})
    return LabeledGraph.from_vertices_and_edges(
        [(vertex, label(vertex)) for vertex in vertices],
        [(u, v, "-") for u, v in edges],
    )


PATTERNS = (pattern((0, 1)), pattern((1, 2)), pattern((0, 1), (1, 2)), pattern((0, 2)))
BIRTH = {"q0": PATTERNS[0], "q1": PATTERNS[2]}
QUERY_IDS = ("q0", "q1", "q2", "q3")
STREAM_IDS = ("s0", "s1", "s2", "s3", 7)
INITIAL = (None, pattern((0, 1)), pattern((0, 1), (1, 2), (2, 3)))


def toggle(graph: LabeledGraph, u: int, v: int) -> EdgeChange:
    """The change that flips edge ``(u, v)`` of ``graph``."""
    if graph.has_edge(u, v):
        return EdgeChange.delete(u, v)
    return EdgeChange.insert(u, v, "-", label(u), label(v))


def recording() -> tuple[list, callable]:
    sent: list[tuple[int, tuple]] = []
    return sent, lambda shard, command: sent.append((shard, command))


# ----------------------------------------------------------------------
# part one: the fleet's decisions
# ----------------------------------------------------------------------
class TestSeed:
    def _fleet(self, history: int) -> Fleet:
        fleet = Fleet(dict(BIRTH), 2)
        sent, deliver = recording()
        for stream_id in STREAM_IDS:
            fleet.add_stream(deliver, stream_id, None)
        for step in range(history):  # a long history of edge toggles
            stream_id = STREAM_IDS[step % len(STREAM_IDS)]
            fleet.apply(deliver, stream_id, toggle(fleet.graphs[stream_id], step % 4, 4))
        fleet.register_query(deliver, "q2", PATTERNS[1])
        fleet.deregister_query(deliver, "q1")
        fleet.deregister_query(deliver, "q0")
        fleet.register_query(deliver, "q0", PATTERNS[0])  # re-registered under a birth id
        return fleet

    @pytest.mark.parametrize("history", [0, 10, 1000])
    def test_is_net_churn_plus_one_add_per_owned_stream(self, history):
        fleet = self._fleet(history)
        for shard in range(fleet.shards):
            owned = [sid for sid, owner in fleet.streams.items() if owner == shard]
            seed = fleet.seed(shard)
            # q0 and q1 leave the birth set, q0 and q2 join it: churn 4.
            assert len(seed) == 4 + len(owned)
            assert sorted(cmd[1] for cmd in seed if cmd[0] == CMD_DEREGISTER_QUERY) == ["q0", "q1"]
            registered = {cmd[1]: cmd[2] for cmd in seed if cmd[0] == CMD_REGISTER_QUERY}
            assert registered == {"q0": PATTERNS[0], "q2": PATTERNS[1]}
            assert registered["q0"] is fleet.queries["q0"]
            adds = [cmd for cmd in seed if cmd[0] == CMD_ADD_STREAM]
            assert [cmd[1] for cmd in adds] == owned
            for _, stream_id, graph in adds:  # the current graph: the put pickles it
                assert graph is fleet.graphs[stream_id]

    def test_without_churn_is_one_add_per_owned_stream(self):
        fleet = Fleet(dict(BIRTH), 3)
        _, deliver = recording()
        for stream_id in STREAM_IDS:
            fleet.add_stream(deliver, stream_id, pattern((0, 1)))
        assert sum(len(fleet.seed(shard)) for shard in range(3)) == len(STREAM_IDS)


class TestRescalePlan:
    STREAMS = [f"s{i}" for i in range(12)] + [3, 11, 25, 100]

    def _fleet(self) -> Fleet:
        fleet = Fleet(dict(BIRTH), 2)
        _, deliver = recording()
        for stream_id in self.STREAMS:
            fleet.add_stream(deliver, stream_id, None)
        return fleet

    @pytest.mark.parametrize("target", [1, 3, 4])
    def test_moves_exactly_the_changed_owners_in_str_order(self, target):
        fleet = self._fleet()
        router = ShardRouter(target)
        plan = fleet.moves(router)
        changed = [sid for sid in self.STREAMS if fleet.streams[sid] != router.shard_for(sid)]
        assert [stream_id for stream_id, _, _ in plan] == sorted(changed, key=str)
        for stream_id, origin, destination in plan:
            assert (origin, destination) == (fleet.streams[stream_id], router.shard_for(stream_id))

    def test_rescale_sends_add_then_remove_per_move_and_spawns_and_retires(self):
        fleet = self._fleet()
        plan = fleet.moves(ShardRouter(4))
        sent, deliver = recording()
        spawned, retired = [], []
        assert fleet.rescale(4, spawned.append, deliver, retired.append) == len(plan)
        assert (spawned, retired, fleet.shards) == ([2, 3], [], 4)
        expected = []
        for stream_id, origin, destination in plan:
            expected.append((destination, CMD_ADD_STREAM, stream_id))
            expected.append((origin, CMD_REMOVE_STREAM, stream_id))
        assert [(shard, command[0], command[1]) for shard, command in sent] == expected
        assert fleet.streams == ShardRouter(4).assignment(self.STREAMS)
        fleet.rescale(1, spawned.append, deliver, retired.append)
        assert (spawned, retired, set(fleet.streams.values())) == ([2, 3], [1, 2, 3], {0})

    def test_a_failed_grow_retires_what_it_spawned_and_changes_nothing(self):
        fleet = self._fleet()
        before = dict(fleet.streams)
        sent, deliver = recording()
        spawned, retired = [], []

        def spawn(shard):
            if spawned:
                raise OSError(28, "No space left on device")
            spawned.append(shard)

        with pytest.raises(OSError):
            fleet.rescale(4, spawn, deliver, retired.append)
        assert (spawned, retired, sent) == ([2], [2, 3], [])
        assert (fleet.shards, fleet.router.num_shards, fleet.streams) == (2, 2, before)


class TestRefusedBatch:
    @pytest.mark.parametrize(
        "poison",
        [
            EdgeChange.insert(0, 1, "-", "A", "B"),
            EdgeChange.delete(5, 6),
            GraphChangeOperation(
                [EdgeChange.insert(1, 2, "-", None, "C"), EdgeChange.insert(2, 9, "-")]
            ),
        ],
        ids=["duplicate-insert", "missing-delete", "unlabeled-vertex"],
    )
    def test_produces_no_command_and_changes_no_state(self, poison):
        sim = SimFleet(BIRTH, num_workers=2)
        sim.add_stream("s", pattern((0, 1)))
        sent, deliver = recording()
        sim._submit = deliver
        fleet = sim.fleet
        before = (fleet.graphs["s"].copy(), fleet.accepted_batches, fleet.since_checkpoint)
        with pytest.raises(GraphError):
            sim.apply("s", poison)
        assert sent == []
        assert (fleet.graphs["s"], fleet.accepted_batches, fleet.since_checkpoint) == before


#: A kill between a rescale move's add and remove, then a kill at every
#: seed command, so each respawn of that shard dies and the move fails.
MOVE_KILL_THEN_CRASH_LOOP = [Fault("move", 0, kill=True)] + [
    Fault("seed", k, kill=True) for k in range(99)
]


class TestRespawn:
    def _pair(self) -> tuple[StreamMonitor, SimFleet]:
        oracle, sim = StreamMonitor(BIRTH), SimFleet(BIRTH, num_workers=2)
        for stream_id, initial in zip(STREAM_IDS, INITIAL + INITIAL):
            for monitor in (oracle, sim):
                monitor.add_stream(stream_id, initial)
        return oracle, sim

    def test_a_poll_kill_then_a_seed_kill_inside_one_matches_returns_the_answer(self):
        """The poll finds shard 0 dead, and its respawn dies on its first
        seed command: that fresh respawn is respawned again, inside the
        same ``matches()``."""
        oracle, sim = self._pair()
        sim.schedule([Fault("poll", 0, kill=True), Fault("seed", 0, kill=True)])
        assert sim.matches() == oracle.matches()
        assert sim.recoveries == 2

    def test_a_crash_loop_still_raises(self):
        _, sim = self._pair()
        sim.schedule([Fault("poll", 0, kill=True)] + [Fault("seed", k, kill=True) for k in range(99)])
        with pytest.raises(WorkerDied):
            sim.matches()
        assert sim.recoveries == RESPAWNS_PER_CALL

    def test_a_rescale_that_fails_in_its_move_phase_keeps_the_answers(self):
        """A worker killed between a move's add and remove, whose every
        respawn dies while it is seeded, fails the rescale, with some streams already on their
        new owners and the rest on their old ones.  Once the dead worker
        is recovered the answers are the oracle's, then and after every
        stream changes, and every stream is counted on one shard."""
        oracle, sim = self._pair()
        before = dict(sim.fleet.streams)
        assert sim.fleet.moves(ShardRouter(4))
        sim.schedule(MOVE_KILL_THEN_CRASH_LOOP)
        with pytest.raises(WorkerDied):
            sim.rescale(4)
        sim.schedule(())
        assert sim.recover_dead()
        for step in range(3):
            if step:
                for stream_id in oracle.stream_ids():
                    change = toggle(oracle.graph(stream_id), step - 1, step)
                    for monitor in (oracle, sim):
                        monitor.apply(stream_id, change)
            assert sim.matches() == oracle.matches()
            assert sim.events() == oracle.events()
            assert sum(sim.stats()["streams_per_shard"].values()) == len(oracle.stream_ids())
        assert sim.fleet.streams != before  # the rescale got part of the way

    def test_a_retried_rescale_moves_what_a_failed_grow_left_behind(self):
        """The failed grow already counts four shards, so the retried
        ``rescale(4)`` is to the current size: it must still hand every
        stream left on its old owner to its router shard."""
        oracle, sim = self._pair()
        sim.schedule(MOVE_KILL_THEN_CRASH_LOOP)
        with pytest.raises(WorkerDied):
            sim.rescale(4)
        sim.schedule(())
        assert sim.recover_dead()
        fleet = sim.fleet
        assert fleet.shards == 4 and fleet.moves(fleet.router)  # left behind
        assert sim.rescale(4) > 0
        placed = {shard: [] for shard in range(4)}
        for stream_id in fleet.streams:
            placed[fleet.router.shard_for(stream_id)].append(stream_id)
        assert fleet.streams == {sid: fleet.router.shard_for(sid) for sid in fleet.streams}
        assert sim.stats()["streams_per_shard"] == {s: len(ids) for s, ids in placed.items()}
        for shard, worker in sim.workers.items():
            assert sorted(worker.state.monitor.stream_ids(), key=str) == sorted(placed[shard], key=str)
        assert sim.matches() == oracle.matches()
        assert sim.rescale(4) == 0  # settled


# ----------------------------------------------------------------------
# part two: the simulated fleet against an in-process oracle
# ----------------------------------------------------------------------
def fault_schedule(seed: int, boundaries: tuple[str, ...]) -> list[Fault]:
    """A fault at one of ``boundaries`` drawn from ``seed`` — at which
    crossing, a kill or a delay — and sometimes a second one among the
    seed commands of the respawn the first may cause."""
    rng = random.Random(seed)

    def fault(boundary: str) -> Fault:
        crossing = rng.choice((0, 0, 0, 1, 2))  # most boundaries are crossed once or twice
        return Fault(boundary, crossing, rng.random() < 0.6, rng.randrange(4))

    faults = [fault(rng.choice(boundaries))]
    if rng.random() < 0.4:
        faults.append(fault("seed"))
    return faults


def faults_at(*boundaries: str):
    return st.integers(0, 2**32 - 1).map(lambda seed: fault_schedule(seed, boundaries))


#: Where each kind of step crosses the driver: deliveries put, rescales
#: also spawn and move, requests poll.
DELIVERY = faults_at("put", "after_put")
RESCALE = faults_at("put", "after_put", "move", "seed")
POLL = faults_at("poll")


class SimFleetMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.oracle = StreamMonitor(BIRTH)
        self.sim = SimFleet(BIRTH, num_workers=2)
        self.workdir = tempfile.mkdtemp(prefix="sim-fleet-")

    def teardown(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def faulted(self, faults, call):
        self.sim.schedule(faults)
        try:
            return call()
        finally:
            self.sim.schedule(())

    def both(self, faults, call, refused=None) -> None:
        """``call`` on the oracle, then under ``faults`` on the simulated
        fleet; refused by both with ``refused`` or by neither."""
        if refused is None:
            call(self.oracle)
            self.faulted(faults, lambda: call(self.sim))
            return
        with pytest.raises(refused):
            call(self.oracle)
        with pytest.raises(refused):
            self.faulted(faults, lambda: call(self.sim))

    @initialize(initials=st.lists(st.sampled_from(INITIAL), min_size=3, max_size=3))
    def three_streams(self, initials):
        for stream_id, initial in zip(STREAM_IDS, initials):
            self.both((), lambda monitor: monitor.add_stream(stream_id, initial))

    @rule(stream_id=st.sampled_from(STREAM_IDS), initial=st.sampled_from(INITIAL), faults=DELIVERY)
    def add_stream(self, stream_id, initial, faults):
        refused = ValueError if stream_id in self.oracle.stream_ids() else None
        self.both(faults, lambda monitor: monitor.add_stream(stream_id, initial), refused)

    @rule(data=st.data(), faults=DELIVERY)
    def remove_stream(self, data, faults):
        live = self.oracle.stream_ids()
        if live:
            stream_id = data.draw(st.sampled_from(sorted(live, key=str)))
            self.both(faults, lambda monitor: monitor.remove_stream(stream_id))

    @rule(data=st.data(), faults=DELIVERY)
    def apply(self, data, faults):
        live = self.oracle.stream_ids()
        if not live:
            return
        stream_id = data.draw(st.sampled_from(sorted(live, key=str)))
        graph = self.oracle.graph(stream_id)
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda p: p[0] < p[1]),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
        changes = [toggle(graph, u, v) for u, v in pairs]
        update = changes[0] if len(changes) == 1 else GraphChangeOperation(changes)
        self.both(faults, lambda monitor: monitor.apply(stream_id, update))

    @rule(data=st.data(), faults=DELIVERY)
    def apply_poison(self, data, faults):
        live = self.oracle.stream_ids()
        if not live:
            return
        stream_id = data.draw(st.sampled_from(sorted(live, key=str)))
        graph = self.oracle.graph(stream_id)
        missing = next(
            (u, v) for u in range(6) for v in range(u + 1, 7) if not graph.has_edge(u, v)
        )
        poison = [
            EdgeChange.delete(*missing),
            EdgeChange.insert(8, 9, "-"),  # endpoints nobody labelled
            GraphChangeOperation([toggle(graph, 0, 5), EdgeChange.delete(*missing)]),
        ]
        if graph.num_edges:
            u, v, _ = next(iter(graph.edges()))
            poison.append(EdgeChange.insert(u, v, "-", label(u), label(v)))
        update = data.draw(st.sampled_from(poison))
        self.both(faults, lambda monitor: monitor.apply(stream_id, update), GraphError)

    @rule(query_id=st.sampled_from(QUERY_IDS), query=st.sampled_from(PATTERNS), faults=DELIVERY)
    def register_query(self, query_id, query, faults):
        refused = ValueError if query_id in self.oracle.query_ids() else None
        self.both(faults, lambda monitor: monitor.register_query(query_id, query), refused)

    @rule(query_id=st.sampled_from(QUERY_IDS), faults=DELIVERY)
    def deregister_query(self, query_id, faults):
        refused = None if query_id in self.oracle.query_ids() else KeyError
        self.both(faults, lambda monitor: monitor.deregister_query(query_id), refused)

    @rule(workers=st.integers(1, 4), faults=RESCALE)
    def rescale(self, workers, faults):
        self.faulted(faults, lambda: self.sim.rescale(workers))
        assert self.sim.fleet.shards == workers

    @rule(workers=st.integers(1, 4), faults=DELIVERY)
    def checkpoint_and_restore(self, workers, faults):
        self.sim.checkpoint(self.workdir)
        self.sim.close()
        self.sim = self.faulted(faults, lambda: SimFleet.restore(self.workdir, num_workers=workers))
        # A restored fleet's first events() reports every pair as appeared.
        assert self.sim.events() == diff_polls(set(), self.oracle.matches())

    @rule(faults=POLL)
    def matches(self, faults):
        assert self.faulted(faults, self.sim.matches) == self.oracle.matches()

    @rule(faults=POLL)
    def events(self, faults):
        assert self.faulted(faults, self.sim.events) == self.oracle.events()

    @invariant()
    def agrees_with_the_oracle(self):
        sim, oracle = self.sim, self.oracle
        assert sim.events() == oracle.events()
        assert sim.matches() == oracle.matches()
        assert sorted(sim.stream_ids(), key=str) == sorted(oracle.stream_ids(), key=str)
        for stream_id in oracle.stream_ids():
            assert sim.graph(stream_id) == oracle.graph(stream_id)
        # Just polled, so every worker is alive and drained: each holds
        # exactly its shard of the state of record.
        fleet = sim.fleet
        assert sorted(sim.workers) == list(range(fleet.shards))
        for shard, worker in sim.workers.items():
            assert worker.state is not None and not worker.inbox
            held = worker.state.monitor
            owned = sorted((sid for sid, owner in fleet.streams.items() if owner == shard), key=str)
            assert sorted(held.stream_ids(), key=str) == owned
            for stream_id in owned:
                assert held.graph(stream_id) == fleet.graphs[stream_id]
            assert sorted(held.query_ids()) == sorted(fleet.queries)


TestSimFleetMachine = SimFleetMachine.TestCase
TestSimFleetMachine.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None, derandomize=True
)


@pytest.mark.slow
def test_sim_fleet_long_profile():
    run_state_machine_as_test(
        SimFleetMachine,
        settings=settings(max_examples=1000, stateful_step_count=50, deadline=None),
    )
