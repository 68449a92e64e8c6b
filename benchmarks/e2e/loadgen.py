"""Deterministic load scripts for the four benchmark workloads.

Every script is a pure function of ``(workload, seed, ticks)``: the
program under test only ever sees the generated inputs.  The generator
owns its inputs — it does not call ``repro.datasets`` — so a later
change to the dataset helpers cannot silently change what the benchmark
measures.  Each batch is replayed on a mirror :class:`LabeledGraph` the
moment it is generated, with the program's own batch semantics
(deletions first, then insertions); an invalid operation aborts
generation instead of reaching the system under test.

Vertex ids, labels, stream ids and query ids are strings throughout, so
the same script is valid in-process, through pickling and over the JSON
wire (graph-set files read back string ids).

A *tick* is one timestamp: its stream batches, optional query churn,
then one answer read.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple

from repro.graph import (
    EdgeChange,
    GraphChangeOperation,
    LabeledGraph,
    apply_operation,
    edge_key,
)

DEFAULT_SEED = 20090329


class Tick(NamedTuple):
    """One timestamp of a script."""

    #: ``(stream_id, batch)`` in application order.
    batches: tuple[tuple[str, GraphChangeOperation], ...]
    #: ``("addq", query_id, pattern)`` / ``("delq", query_id)`` applied
    #: after the batches and before the answer is read.
    churn: tuple[tuple, ...]
    #: Served depth only: also issue a global ``matches`` read.
    global_read: bool

    @property
    def changes(self) -> int:
        return sum(len(batch) for _, batch in self.batches)


@dataclass(frozen=True)
class Workload:
    """Static description of one workload (recorded in BENCHMARK.json)."""

    name: str
    #: Entry depth the end-to-end metrics are measured at.
    depth: str
    #: Percentile reported as ``tick_tail_ms``.
    tail_pct: int
    #: Generated ticks per measured second: a ceiling several times the
    #: seed's rate, so a run ends on the clock and not on the script.
    ticks_per_second: float
    #: Ticks the traced run replays per ``--seconds``: a *count*, not a
    #: clock, so every exact per-layer count repeats bit-for-bit per seed.
    trace_ticks_per_second: float
    sizes: dict
    #: ``--smoke`` overrides of ``sizes`` (same code paths, tiny inputs).
    smoke: dict
    build: Callable[[random.Random, int, dict], tuple]


@dataclass
class Script:
    """A generated load script plus everything needed to check answers."""

    workload: Workload
    seed: int
    #: The sizes the script was built with (``smoke`` overrides applied).
    sizes: dict
    queries: dict[str, LabeledGraph]
    initial: dict[str, LabeledGraph]
    ticks: list[Tick]
    #: A pattern outside the query set, for register/deregister probes.
    probe_query: LabeledGraph

    def digest(self) -> str:
        """Byte-stable fingerprint of every generated input."""
        sha = hashlib.sha256()
        for name, graph in sorted(self.queries.items()):
            sha.update(_graph_bytes(name, graph))
        for name, graph in sorted(self.initial.items()):
            sha.update(_graph_bytes(name, graph))
        for tick in self.ticks:
            for stream_id, batch in tick.batches:
                sha.update(stream_id.encode())
                for c in batch:
                    sha.update(
                        f"{c.op},{c.u},{c.v},{c.edge_label},{c.u_label},{c.v_label};".encode()
                    )
            for item in tick.churn:
                sha.update(item[0].encode() + item[1].encode())
                if item[0] == "addq":
                    sha.update(_graph_bytes(item[1], item[2]))
            sha.update(b"R" if tick.global_read else b"|")
        return sha.hexdigest()

    def live_queries_at(self, tick_index: int) -> dict[str, LabeledGraph]:
        """The query set in force when tick ``tick_index`` is answered."""
        live = dict(self.queries)
        for tick in self.ticks[: tick_index + 1]:
            for item in tick.churn:
                if item[0] == "addq":
                    live[item[1]] = item[2]
                else:
                    del live[item[1]]
        return live


def _graph_bytes(name: str, graph: LabeledGraph) -> bytes:
    vertices = sorted(graph.vertex_items())
    edges = sorted(graph.edges())
    return f"{name}:{vertices}:{edges}".encode()


# ----------------------------------------------------------------------
# graph builders
# ----------------------------------------------------------------------
def _connected_graph(
    rng: random.Random, size: int, labels: list[str], extra_edges: int, edge_label: str
) -> LabeledGraph:
    """Random spanning tree over ``size`` vertices plus ``extra_edges``."""
    graph = LabeledGraph()
    for vertex in range(size):
        graph.add_vertex(str(vertex), rng.choice(labels))
    order = list(range(size))
    rng.shuffle(order)
    for i in range(1, size):
        graph.add_edge(str(order[i]), str(rng.choice(order[:i])), edge_label)
    while extra_edges > 0:
        u, v = rng.sample(range(size), 2)
        if not graph.has_edge(str(u), str(v)):
            graph.add_edge(str(u), str(v), edge_label)
            extra_edges -= 1
    return graph


def _inflate(
    rng: random.Random, graph: LabeledGraph, size: int, labels: list[str], edge_label: str
) -> LabeledGraph:
    """The paper's stream base: the query graph grown to ``size``
    vertices by attaching randomly labeled vertices with 1-2 edges."""
    inflated = graph.copy()
    existing = sorted(inflated.vertices(), key=int)
    for vertex in range(len(existing), size):
        inflated.add_vertex(str(vertex), rng.choice(labels))
        for anchor in rng.sample(existing, rng.randint(1, 2)):
            inflated.add_edge(str(vertex), anchor, edge_label)
        existing.append(str(vertex))
    return inflated


def _extract_query(rng: random.Random, graph: LabeledGraph, num_edges: int) -> LabeledGraph:
    """A random connected ``num_edges``-edge subgraph, vertices renamed
    ``0..k`` (so it is monomorphic to ``graph`` by construction)."""
    edges = sorted(graph.edges())
    u, v, label = rng.choice(edges)
    chosen = {edge_key(u, v): label}
    vertices = [u, v]
    while len(chosen) < num_edges:
        frontier = sorted(
            (edge_key(a, b), lab)
            for a in vertices
            for b, lab in graph.neighbor_items(a)
            if edge_key(a, b) not in chosen
        )
        if not frontier:
            break
        (a, b), label = rng.choice(frontier)
        chosen[(a, b)] = label
        vertices.extend(w for w in (a, b) if w not in vertices)
    rename = {vertex: str(i) for i, vertex in enumerate(vertices)}
    query = LabeledGraph()
    for vertex in vertices:
        query.add_vertex(rename[vertex], graph.vertex_label(vertex))
    for (a, b), label in chosen.items():
        query.add_edge(rename[a], rename[b], label)
    return query


class _Mirror:
    """Generation-time replica of one stream; validates each batch."""

    def __init__(self, graph: LabeledGraph) -> None:
        self.graph = graph

    def emit(self, changes: list[EdgeChange]) -> GraphChangeOperation:
        batch = GraphChangeOperation(changes)
        # Raises GraphError on a duplicate insert / missing delete: the
        # generator must never hand the program an invalid batch.
        apply_operation(self.graph, batch)
        return batch


# ----------------------------------------------------------------------
# Fig 15 synthetic streams: per-pair coin flips over a fixed vertex set
# ----------------------------------------------------------------------
SYN_LABELS = ["v0", "v1", "v2", "v3"]
SYN_EDGE = "e0"
#: Coin-flip rounds applied before timestamp 0, so streams start at the
#: equilibrium density p1/(p1+p2) and tick cost is stationary.
SYN_BURN_IN = 40


class _CoinFlipStream:
    """One all-pairs coin-flip stream (Section V-B of the paper)."""

    def __init__(
        self, rng: random.Random, base: LabeledGraph, p_appear: float, p_disappear: float
    ) -> None:
        self.rng = rng
        self.p_appear = p_appear
        self.p_disappear = p_disappear
        self.labels = dict(base.vertex_items())
        vertices = sorted(self.labels, key=int)
        self.pairs = [
            (vertices[i], vertices[j])
            for i in range(len(vertices))
            for j in range(i + 1, len(vertices))
        ]
        self.mirror = _Mirror(base.copy())
        for _ in range(SYN_BURN_IN):
            self.step()

    def step(self) -> GraphChangeOperation:
        graph, rng = self.mirror.graph, self.rng
        changes = []
        for u, v in self.pairs:
            if graph.has_edge(u, v):
                if rng.random() < self.p_disappear:
                    changes.append(EdgeChange.delete(u, v))
            elif rng.random() < self.p_appear:
                changes.append(
                    EdgeChange.insert(u, v, SYN_EDGE, self.labels[u], self.labels[v])
                )
        return self.mirror.emit(changes)


def _build_synthetic(
    rng: random.Random, ticks: int, sizes: dict
) -> tuple[dict, dict, list[Tick], LabeledGraph]:
    """Queries are random connected graphs; stream ``i`` starts from
    query ``i`` inflated to ``stream_size`` vertices.  With
    ``churn_every`` set, every that-many-th tick registers a new pattern
    and retires the oldest (Fig 16-style query-side writes)."""
    num_queries, query_size = sizes["queries"], sizes["query_size"]
    churn_every = sizes.get("churn_every", 0)

    def fresh_query() -> LabeledGraph:
        return _connected_graph(rng, query_size, SYN_LABELS, query_size // 2, SYN_EDGE)

    bases = [fresh_query() for _ in range(max(sizes["streams"], num_queries))]
    queries = {f"q{i}": bases[i] for i in range(num_queries)}
    streams = {
        f"s{i}": _CoinFlipStream(
            rng,
            _inflate(rng, bases[i], sizes["stream_size"], SYN_LABELS, SYN_EDGE),
            sizes["p_appear"],
            sizes["p_disappear"],
        )
        for i in range(sizes["streams"])
    }
    initial = {sid: stream.mirror.graph.copy() for sid, stream in streams.items()}
    live = list(queries)
    script = []
    for t in range(ticks):
        batches = tuple((sid, stream.step()) for sid, stream in streams.items())
        churn: tuple[tuple, ...] = ()
        if churn_every and t % churn_every == churn_every - 1:
            newcomer = f"q{num_queries + t // churn_every}"
            churn = (("addq", newcomer, fresh_query()), ("delq", live.pop(0)))
            live.append(newcomer)
        script.append(Tick(batches, churn, False))
    return queries, initial, script, fresh_query()


# ----------------------------------------------------------------------
# Reality-Mining-shaped proximity streams (parity-netting)
# ----------------------------------------------------------------------
DEVICE_LABELS = [f"dev{i}" for i in range(10)]
PROXIMITY = "near"


def _build_proximity(
    rng: random.Random, ticks: int, sizes: dict
) -> tuple[dict, dict, list[Tick], LabeledGraph]:
    devices, communities = sizes["devices"], sizes["communities"]
    labels = {str(d): DEVICE_LABELS[d % len(DEVICE_LABELS)] for d in range(devices)}

    def density(u: int, v: int) -> float:
        same = u % communities == v % communities
        return sizes["within_density"] if same else sizes["across_density"]

    # Exact edge counts per stream (a sample, not a coin per pair), so
    # index size and memory vary with the wiring only, not the density.
    pairs = [(u, v) for u in range(devices) for v in range(u + 1, devices)]
    within = [pair for pair in pairs if pair[0] % communities == pair[1] % communities]
    across = [pair for pair in pairs if pair[0] % communities != pair[1] % communities]
    mirrors = {}
    present: dict[str, list[tuple[str, str]]] = {}
    for i in range(sizes["streams"]):
        graph = LabeledGraph()
        chosen = rng.sample(within, round(sizes["within_density"] * len(within)))
        chosen += rng.sample(across, round(sizes["across_density"] * len(across)))
        for u, v in sorted(chosen):
            for w in (str(u), str(v)):
                if not graph.has_vertex(w):
                    graph.add_vertex(w, labels[w])
            graph.add_edge(str(u), str(v), PROXIMITY)
        mirrors[f"s{i}"] = _Mirror(graph)
        present[f"s{i}"] = sorted(edge_key(u, v) for u, v, _ in graph.edges())
    initial = {sid: mirror.graph.copy() for sid, mirror in mirrors.items()}
    targets = {sid: len(edges) for sid, edges in present.items()}
    snapshots = list(initial.values())
    queries = {
        f"q{i}": _extract_query(rng, snapshots[i % len(snapshots)], sizes["query_edges"])
        for i in range(sizes["queries"])
    }

    def step(sid: str) -> GraphChangeOperation:
        # ``live`` tracks the edge set *within* the batch; the mirror
        # keeps the state at the start of the batch.  An edge flipped an
        # even number of times nets out, an odd number of times emits
        # exactly one change — so a delete always names an edge the
        # program still has (the parity the src generator loses).
        graph, live = mirrors[sid].graph, present[sid]
        flips = max(1, round(rng.expovariate(1.0 / sizes["mean_flips"])))
        parity: dict[tuple[str, str], bool] = {}
        for _ in range(flips):
            # Mean-reverting: an even coin at the initial edge count, all
            # deletes 10 edges above it, all inserts 10 below.  A free
            # random walk moved a stream's edge count by ~10 % over a run
            # and its NNT size (~ degree cubed) by ~30 %, so memory and
            # tick cost depended on the seed's luck.
            if live and rng.random() < 0.5 + (len(live) - targets[sid]) / 20:
                key = live.pop(rng.randrange(len(live)))
            else:
                # New proximity, biased toward the same community; redraw
                # until a currently absent pair is accepted.
                while True:
                    u, v = rng.sample(range(devices), 2)
                    key = edge_key(str(u), str(v))
                    absent = graph.has_edge(*key) == parity.get(key, False)
                    if absent and rng.random() < density(u, v) * 8:
                        break
                live.append(key)
            parity[key] = not parity.get(key, False)
        changes = []
        for (u, v), odd in sorted(parity.items()):
            if not odd:
                continue
            if graph.has_edge(u, v):
                changes.append(EdgeChange.delete(u, v))
            else:
                changes.append(EdgeChange.insert(u, v, PROXIMITY, labels[u], labels[v]))
        return mirrors[sid].emit(changes)

    script = [
        Tick(tuple((sid, step(sid)) for sid in mirrors), (), False)
        for _ in range(ticks)
    ]
    return queries, initial, script, _extract_query(rng, snapshots[0], sizes["query_edges"])


# ----------------------------------------------------------------------
# fraud-ring-shaped thin commits
# ----------------------------------------------------------------------
ACCOUNT_LABELS = ["acct", "mule", "merchant", "bank"]
PAY = "pay"


def _fraud_patterns() -> dict[str, LabeledGraph]:
    """The three ``fraud_ring_v1`` typologies (fixed, seed-independent)."""
    ring = LabeledGraph.from_vertices_and_edges(
        [("0", "acct"), ("1", "acct"), ("2", "acct")],
        [("0", "1", PAY), ("1", "2", PAY), ("2", "0", PAY)],
    )
    fan = LabeledGraph.from_vertices_and_edges(
        [("0", "acct"), ("1", "acct"), ("2", "mule"), ("3", "bank")],
        [("0", "2", PAY), ("1", "2", PAY), ("2", "3", PAY)],
    )
    chain = LabeledGraph.from_vertices_and_edges(
        [("0", "acct"), ("1", "mule"), ("2", "mule"), ("3", "merchant")],
        [("0", "1", PAY), ("1", "2", PAY), ("2", "3", PAY)],
    )
    return {"money-cycle": ring, "mule-fan-in": fan, "layering-chain": chain}


def _build_txn(
    rng: random.Random, ticks: int, sizes: dict
) -> tuple[dict, dict, list[Tick], LabeledGraph]:
    accounts, window = sizes["accounts"], sizes["window_edges"]

    def label(account: str) -> str:
        return ACCOUNT_LABELS[int(account) % len(ACCOUNT_LABELS)]

    def payments(graph: LabeledGraph, count: int) -> list[tuple[str, str]]:
        fresh: list[tuple[str, str]] = []
        while len(fresh) < count:
            a, b = (str(x) for x in rng.sample(range(accounts), 2))
            if not graph.has_edge(a, b) and edge_key(a, b) not in fresh:
                fresh.append(edge_key(a, b))
        return fresh

    mirrors: dict[str, _Mirror] = {}
    ledgers: dict[str, list[tuple[str, str]]] = {}
    for i in range(sizes["streams"]):
        sid = f"acct{i:02d}"
        mirrors[sid] = _Mirror(LabeledGraph())
        ledgers[sid] = payments(mirrors[sid].graph, window)
        mirrors[sid].emit(
            [EdgeChange.insert(a, b, PAY, label(a), label(b)) for a, b in ledgers[sid]]
        )
    initial = {sid: mirror.graph.copy() for sid, mirror in mirrors.items()}
    stream_ids = list(mirrors)
    script = []
    for t in range(ticks):
        sid = rng.choice(stream_ids)
        ledger = ledgers[sid]
        fresh = payments(mirrors[sid].graph, rng.randint(1, 3))
        ledger.extend(fresh)
        expired = [ledger.pop(0) for _ in range(len(ledger) - window)]
        batch = mirrors[sid].emit(
            [EdgeChange.delete(a, b) for a, b in expired]
            + [EdgeChange.insert(a, b, PAY, label(a), label(b)) for a, b in fresh]
        )
        every = sizes["global_read_every"]
        script.append(Tick(((sid, batch),), (), t % every == every - 1))
    probe = LabeledGraph.from_vertices_and_edges(
        [("0", "acct"), ("1", "merchant"), ("2", "bank"), ("3", "mule")],
        [("0", "1", PAY), ("1", "2", PAY), ("2", "3", PAY)],
    )
    return _fraud_patterns(), initial, script, probe


# ----------------------------------------------------------------------
# the workload table
# ----------------------------------------------------------------------
DENSE_NNT = Workload(
    name="dense_nnt",
    depth="inproc",
    tail_pct=90,
    ticks_per_second=100.0,
    trace_ticks_per_second=4.0,
    sizes={
        "streams": 6,
        "queries": 10,
        "query_size": 8,
        "stream_size": 12,  # the query graphs inflated 1.5x
        "p_appear": 0.20,  # the paper's dense setting, all vertex pairs
        "p_disappear": 0.15,
    },
    smoke={"streams": 2, "queries": 4},
    build=_build_synthetic,
)

PROXIMITY_JOIN = Workload(
    name="proximity_join",
    depth="inproc",
    tail_pct=95,
    ticks_per_second=100.0,
    trace_ticks_per_second=3.6,
    sizes={
        "streams": 8,
        "queries": 60,
        "query_edges": 5,
        "devices": 97,
        "communities": 2,
        "within_density": 0.12,
        "across_density": 0.01,
        "mean_flips": 3.0,
    },
    smoke={"streams": 3, "queries": 12, "devices": 40},
    build=_build_proximity,
)

TXN_SERVE = Workload(
    name="txn_serve",
    depth="tcp",
    tail_pct=99,
    ticks_per_second=1000.0,
    trace_ticks_per_second=50.0,
    sizes={
        "streams": 32,
        "accounts": 40,
        "window_edges": 30,
        "global_read_every": 50,
        "workers": 2,
        "shm": False,  # ``repro serve`` has no shm switch
    },
    smoke={"streams": 8},
    build=_build_txn,
)

SPARSE_CHURN = Workload(
    name="sparse_sharded_churn",
    depth="sharded",
    tail_pct=95,
    ticks_per_second=60.0,
    trace_ticks_per_second=3.0,  # 5 ticks a chunk at 20 s: one churn tick in each
    sizes={
        "streams": 10,
        "queries": 10,
        "query_size": 8,
        "stream_size": 18,
        "p_appear": 0.10,  # the paper's sparse setting, all vertex pairs
        "p_disappear": 0.30,
        "churn_every": 5,
        "workers": 2,
        "shm": True,
    },
    smoke={"streams": 4, "queries": 4, "stream_size": 12},
    build=_build_synthetic,
)

WORKLOADS = {w.name: w for w in (DENSE_NNT, PROXIMITY_JOIN, TXN_SERVE, SPARSE_CHURN)}


#: The traced run advances all its systems chunk by chunk, so that every
#: layer is timed within a second or two of every other one.
TRACE_CHUNKS = 12


def trace_ticks(workload: str, seconds: float) -> int:
    """How many ticks the traced run replays for a ``--seconds`` budget:
    a whole number of ticks in each of the ``TRACE_CHUNKS`` chunks."""
    rate = WORKLOADS[workload].trace_ticks_per_second
    return TRACE_CHUNKS * max(1, round(rate * seconds / TRACE_CHUNKS))


def generate(
    workload: str, seed: int, seconds: float, max_ticks: int = 0, smoke: bool = False
) -> Script:
    """Build the script for ``workload``: enough ticks to outlast
    ``seconds`` of measurement (or exactly ``max_ticks`` when given)."""
    spec = WORKLOADS[workload]
    sizes = {**spec.sizes, **(spec.smoke if smoke else {})}
    ticks = max_ticks or math.ceil(spec.ticks_per_second * max(seconds, 1.0))
    # One RNG per (workload, seed); str seeds hash stably across runs.
    rng = random.Random(f"{workload}:{seed}")
    queries, initial, script, probe = spec.build(rng, ticks, sizes)
    return Script(spec, seed, sizes, queries, initial, script, probe)
