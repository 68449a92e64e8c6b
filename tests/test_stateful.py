"""Hypothesis stateful machines.

Two rule-based state machines drive the system through arbitrary
interleavings of operations, holding the library's core invariants at
every step:

* ``NNTIndexMachine`` — random edge churn on one ``NNTIndex``; after
  every step the incremental state must equal a fresh rebuild.
* ``MonitorMachine`` — a full :class:`StreamMonitor` with stream AND
  query churn; after every step all engines agree with the brute-force
  oracle, and the filter stays sound w.r.t. exact isomorphism.
"""

import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro import StreamMonitor
from repro.graph import LabeledGraph
from repro.isomorphism import SubgraphMatcher
from repro.nnt import NNTIndex, project_graph

LABELS = ("A", "B", "C")


class NNTIndexMachine(RuleBasedStateMachine):
    """Random edge churn with full integrity checks."""

    def __init__(self):
        super().__init__()
        self.index = NNTIndex(depth_limit=2)
        self.next_vertex = 0

    @rule(seed=st.integers(0, 10**6))
    def insert_random_edge(self, seed):
        rng = random.Random(seed)
        vertices = list(self.index.graph.vertices())
        if len(vertices) >= 2 and rng.random() < 0.7:
            u, v = rng.sample(vertices, 2)
            if not self.index.graph.has_edge(u, v):
                self.index.insert_edge(u, v, rng.choice("xy"))
                return
        anchor = rng.choice(vertices) if vertices else None
        new_vertex = self.next_vertex
        self.next_vertex += 1
        if anchor is None:
            other = self.next_vertex
            self.next_vertex += 1
            self.index.insert_edge(
                new_vertex, other, "x", rng.choice(LABELS), rng.choice(LABELS)
            )
        else:
            self.index.insert_edge(anchor, new_vertex, "x", None, rng.choice(LABELS))

    @rule(seed=st.integers(0, 10**6))
    def delete_random_edge(self, seed):
        edges = list(self.index.graph.edges())
        if edges:
            u, v, _ = random.Random(seed).choice(edges)
            self.index.delete_edge(u, v)

    @invariant()
    def equals_fresh_rebuild(self):
        assert self.index.npvs == project_graph(self.index.graph, 2)

    @invariant()
    def structures_consistent(self):
        self.index.check_integrity()


class MonitorMachine(RuleBasedStateMachine):
    """Stream + query churn on a StreamMonitor; engines stay equivalent
    and sound."""

    def __init__(self):
        super().__init__()
        self.monitors = {}
        self.mirrors: dict = {}
        self.queries: dict = {}
        self.next_query = 0
        self.next_stream = 0
        self.next_vertex = 0

    @initialize()
    def setup(self):
        base = LabeledGraph.from_vertices_and_edges(
            [(0, "A"), (1, "B")], [(0, 1, "x")]
        )
        self.queries = {"q0": base}
        self.monitors = {
            method: StreamMonitor(dict(self.queries), method=method, depth_limit=2)
            for method in ("nl", "dsc", "skyline")
        }
        self.next_query = 1

    def _apply_change(self, stream_id, change):
        from repro.graph import apply_change

        apply_change(self.mirrors[stream_id], change)
        for monitor in self.monitors.values():
            monitor.apply(stream_id, change)

    @rule()
    def add_stream(self):
        stream_id = f"s{self.next_stream}"
        self.next_stream += 1
        self.mirrors[stream_id] = LabeledGraph()
        for monitor in self.monitors.values():
            monitor.add_stream(stream_id)

    @precondition(lambda self: self.mirrors)
    @rule(seed=st.integers(0, 10**6))
    def mutate_stream(self, seed):
        rng = random.Random(seed)
        stream_id = rng.choice(sorted(self.mirrors))
        mirror = self.mirrors[stream_id]
        from repro.graph import EdgeChange

        edges = list(mirror.edges())
        vertices = list(mirror.vertices())
        if edges and rng.random() < 0.4:
            u, v, _ = rng.choice(edges)
            self._apply_change(stream_id, EdgeChange.delete(u, v))
        elif len(vertices) >= 2 and rng.random() < 0.6:
            u, v = rng.sample(vertices, 2)
            if not mirror.has_edge(u, v):
                self._apply_change(stream_id, EdgeChange.insert(u, v, "x"))
        else:
            new_vertex = self.next_vertex
            self.next_vertex += 1
            if vertices:
                self._apply_change(
                    stream_id,
                    EdgeChange.insert(
                        rng.choice(vertices), new_vertex, "x", None, rng.choice(LABELS)
                    ),
                )
            else:
                other = self.next_vertex
                self.next_vertex += 1
                self._apply_change(
                    stream_id,
                    EdgeChange.insert(
                        new_vertex, other, "x", rng.choice(LABELS), rng.choice(LABELS)
                    ),
                )

    @precondition(lambda self: len(self.mirrors) > 1)
    @rule(seed=st.integers(0, 10**6))
    def remove_stream(self, seed):
        stream_id = random.Random(seed).choice(sorted(self.mirrors))
        del self.mirrors[stream_id]
        for monitor in self.monitors.values():
            monitor.remove_stream(stream_id)

    @precondition(lambda self: len(self.queries) < 4)
    @rule(seed=st.integers(0, 10**6))
    def add_query(self, seed):
        rng = random.Random(seed)
        size = rng.randint(2, 4)
        query = LabeledGraph()
        for i in range(size):
            query.add_vertex(i, rng.choice(LABELS))
        for i in range(1, size):
            query.add_edge(i, rng.randrange(i), rng.choice("xy"))
        query_id = f"q{self.next_query}"
        self.next_query += 1
        self.queries[query_id] = query
        for monitor in self.monitors.values():
            monitor.register_query(query_id, query)

    @precondition(lambda self: len(self.queries) > 1)
    @rule(seed=st.integers(0, 10**6))
    def remove_query(self, seed):
        query_id = random.Random(seed).choice(sorted(self.queries))
        del self.queries[query_id]
        for monitor in self.monitors.values():
            monitor.deregister_query(query_id)

    @invariant()
    def engines_agree(self):
        answers = {
            method: frozenset(monitor.matches())
            for method, monitor in self.monitors.items()
        }
        assert len(set(answers.values())) == 1, answers

    @invariant()
    def filter_is_sound(self):
        reported = next(iter(self.monitors.values())).matches()
        for stream_id, mirror in self.mirrors.items():
            matcher = SubgraphMatcher(mirror)
            for query_id, query in self.queries.items():
                if matcher.is_subgraph(query):
                    assert (stream_id, query_id) in reported


TestNNTIndexMachine = NNTIndexMachine.TestCase
TestNNTIndexMachine.settings = settings(
    max_examples=20, stateful_step_count=25, deadline=None
)

TestMonitorMachine = MonitorMachine.TestCase
TestMonitorMachine.settings = settings(
    max_examples=15, stateful_step_count=20, deadline=None
)
