"""Filter-quality telemetry: candidate counters, pruning-power blame,
and the budgeted precision probe.

Candidate and pruning counts are recorded in one place,
:meth:`repro.join.base.JoinEngine.candidates`, under one blame
definition: :class:`TestOneRecordingSite` requires every engine to
count the same pruned pairs under the same dimensions at every poll.

The acceptance property lives in :class:`TestPrecisionProbe`: at 100%
sampling and no time budget the probe reproduces the offline
false-positive ratio *exactly*, and over a fig14-style replay a sampled
rate agrees with it within the documented Bernoulli confidence bound.
"""

from __future__ import annotations

import random
from math import sqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.monitor import StreamMonitor
from repro.core.verify import PrecisionProbe
from repro.graph import LabeledGraph
from repro.graph.operations import EdgeChange, GraphChangeOperation
from repro.join.base import blame_dimension
from repro.obs import Registry
from repro.obs.exposition import render_prometheus
from repro.obs.quality import ProbeBudget

from .conftest import random_labeled_graph


@pytest.fixture(autouse=True)
def clean_obs():
    """Each test gets an enabled, empty registry and span buffer."""
    previous = obs.set_registry(Registry())
    obs.clear_spans()
    was_enabled = obs.enabled()
    obs.enable()
    yield
    obs.set_registry(previous)
    obs.clear_spans()
    if was_enabled:
        obs.enable()
    else:
        obs.disable()


def counter_value(name: str, **labels: str) -> float:
    instrument = obs.get_registry().get(name, labels=labels or None)
    return instrument.value if instrument is not None else 0.0


def pruned_series(engine: str) -> dict[str, float]:
    """dim -> count for one engine's ``join.<engine>.pruned`` metric."""
    base = f"join.{engine}.pruned"
    out: dict[str, float] = {}
    for key, entry in obs.get_registry().summary().items():
        if key == base or key.startswith(base + "{"):
            out[(entry.get("labels") or {}).get("dim", "?")] = entry["value"]
    return out


# ----------------------------------------------------------------------
# blame semantics
# ----------------------------------------------------------------------
class TestBlameDimension:
    def test_uncovered_dimension_is_blamed(self):
        query = {"a": 2, "b": 1}
        streams = [{"a": 1, "b": 5}, {"a": 0, "b": 9}]
        assert blame_dimension(query, streams) == "a"

    def test_first_uncovered_in_sorted_order(self):
        query = {"b": 3, "a": 3}
        streams = [{"a": 1, "b": 1}]
        assert blame_dimension(query, streams) == "a"

    def test_combination_when_each_dim_coverable_alone(self):
        query = {"a": 2, "b": 2}
        streams = [{"a": 5, "b": 0}, {"a": 0, "b": 5}]
        assert blame_dimension(query, streams) == "combination"

    def test_empty_stream_set_blames_first_dimension(self):
        assert blame_dimension({"x": 1}, []) == "x"

    def test_tuple_dimensions_stringify(self):
        query = {(1, "A", "B"): 2}
        assert blame_dimension(query, [{(1, "A", "B"): 1}]) == str((1, "A", "B"))


# ----------------------------------------------------------------------
# recorders
# ----------------------------------------------------------------------
ENGINE_NAMES = ("nl", "dsc", "skyline", "matrix")


def edge_graph(a: str, b: str) -> LabeledGraph:
    return LabeledGraph.from_vertices_and_edges([(0, a), (1, b)], [(0, 1, "x")])


def ab_monitor(method: str) -> StreamMonitor:
    """Queries ``ab`` (passes) and ``ac`` (pruned) over one A-B stream."""
    monitor = StreamMonitor({"ab": edge_graph("A", "B"), "ac": edge_graph("A", "C")}, method=method)
    monitor.add_stream("s0", edge_graph("A", "B"))
    return monitor


class TestRecorders:
    def test_record_candidates_counts_per_pair(self):
        """``filter.candidates`` is one unlabelled counter: each poll adds
        the number of pairs it passed."""
        monitor = ab_monitor("dsc")
        assert monitor.matches() == {("s0", "ab")}
        monitor.matches()
        assert counter_value("filter.candidates") == 2
        assert not [
            key for key in obs.get_registry().summary() if key.startswith("filter.candidates{")
        ]

    def test_record_pruned_counts_per_dimension(self):
        """Each poll counts each pruned pair once, on every engine, under
        one blamed dimension, a C dimension the A-B stream cannot cover."""
        blamed = set()
        for method in ENGINE_NAMES:
            monitor = ab_monitor(method)
            monitor.matches()
            monitor.matches()
            (dim,) = pruned_series(method)
            assert dim.startswith("(") and "C" in dim, (method, dim)
            assert pruned_series(method) == {dim: 2.0}, method
            blamed.add(dim)
        assert len(blamed) == 1, blamed

    def test_record_probe_gauge_is_cumulative(self):
        obs.quality.record_probe(checked=4, false_positives=1)
        gauge = obs.get_registry().get("filter.fp_ratio_estimate")
        assert gauge.value == pytest.approx(0.25)
        obs.quality.record_probe(checked=4, false_positives=3, skipped=2)
        # 4 of 8 cumulative, not 3 of 4 from the last pass.
        assert gauge.value == pytest.approx(0.5)
        assert counter_value("filter.probe.skipped") == 2

    def test_record_probe_without_checks_sets_no_gauge(self):
        obs.quality.record_probe(checked=0, false_positives=0, skipped=5)
        assert obs.get_registry().get("filter.fp_ratio_estimate") is None

    def test_disabled_recorders_touch_nothing(self):
        monitor = ab_monitor("dsc")
        obs.disable()
        before = obs.get_registry().summary()
        assert monitor.matches() == {("s0", "ab")}
        obs.quality.record_probe(checked=3, false_positives=1)
        assert obs.get_registry().summary() == before
        assert not any(".pruned" in key or key.startswith("filter.") for key in before)

    def test_gauge_renders_with_the_documented_prometheus_name(self):
        obs.quality.record_probe(checked=2, false_positives=1)
        text = render_prometheus(obs.get_registry().summary())
        assert "repro_filter_fp_ratio_estimate 0.5" in text


# ----------------------------------------------------------------------
# the probe budget
# ----------------------------------------------------------------------
class TestProbeBudget:
    def test_rate_bounds_validated(self):
        with pytest.raises(ValueError):
            ProbeBudget(rate=-0.1)
        with pytest.raises(ValueError):
            ProbeBudget(rate=1.5)
        with pytest.raises(ValueError):
            ProbeBudget(budget_seconds=-1.0)

    def test_uncapped_budget_never_expires(self):
        budget = ProbeBudget(rate=1.0, budget_seconds=None)
        budget.start()
        assert not budget.expired()

    def test_zero_budget_expires_immediately(self):
        budget = ProbeBudget(rate=1.0, budget_seconds=0.0)
        budget.start()
        assert budget.expired()


# ----------------------------------------------------------------------
# the precision probe on a live monitor
# ----------------------------------------------------------------------
def tiny_monitor(method: str = "dsc", seed: int = 5):
    from repro.datasets.stream_gen import synthesize_stream

    rng = random.Random(seed)
    queries = {
        f"q{i}": random_labeled_graph(rng, rng.randint(2, 4), extra_edges=1)
        for i in range(3)
    }
    monitor = StreamMonitor(queries, method=method)
    streams = {}
    for i in range(3):
        base = random_labeled_graph(rng, rng.randint(5, 8), extra_edges=2)
        streams[f"s{i}"] = synthesize_stream(
            base, 0.3, 0.2, 5, rng, all_pairs=True, name=f"s{i}"
        )
    for stream_id, stream in streams.items():
        monitor.add_stream(stream_id, stream.initial)
    horizon = min(len(s.operations) for s in streams.values())
    for t in range(horizon):
        for stream_id, stream in streams.items():
            monitor.apply(stream_id, stream.operations[t])
        monitor.matches()  # poll: the engines evaluate (and blame) here
    return monitor


class TestPrecisionProbe:
    def test_full_rate_equals_offline_verification(self):
        monitor = tiny_monitor()
        emitted = monitor.matches()
        confirmed = monitor.verified_matches(emitted)
        probe = PrecisionProbe(monitor, rate=1.0, budget_seconds=None)
        result = probe.sample()
        assert result["checked"] == len(emitted)
        assert result["skipped"] == 0
        expected = (len(emitted) - len(confirmed)) / len(emitted)
        assert probe.fp_ratio_estimate == pytest.approx(expected)

    def test_zero_rate_checks_nothing(self):
        monitor = tiny_monitor()
        probe = PrecisionProbe(monitor, rate=0.0)
        result = probe.sample()
        assert result["checked"] == 0
        assert result["skipped"] == len(monitor.matches())
        assert probe.fp_ratio_estimate is None

    def test_exhausted_budget_skips_instead_of_blocking(self):
        monitor = tiny_monitor()
        probe = PrecisionProbe(monitor, rate=1.0, budget_seconds=0.0)
        result = probe.sample()
        assert result["checked"] == 0
        assert result["skipped"] == len(monitor.matches())

    def test_probe_never_alters_the_filter_output(self):
        monitor = tiny_monitor()
        before = set(monitor.matches())
        PrecisionProbe(monitor, rate=1.0, budget_seconds=None).sample()
        assert set(monitor.matches()) == before

    def test_probe_feeds_the_live_gauge_and_span(self):
        monitor = tiny_monitor()
        PrecisionProbe(monitor, rate=1.0, budget_seconds=None).sample()
        gauge = obs.get_registry().get("filter.fp_ratio_estimate")
        assert gauge is not None and 0.0 <= gauge.value <= 1.0
        assert any(record.name == "monitor.probe" for record in obs.spans())

    def test_sampling_is_seeded_and_reproducible(self):
        tallies = []
        for _ in range(2):
            monitor = tiny_monitor()
            probe = PrecisionProbe(monitor, rate=0.5, budget_seconds=None, seed=7)
            tallies.append(probe.sample())
        assert tallies[0] == tallies[1]

    def test_matcher_cache_reused_until_the_stream_changes(self):
        monitor = tiny_monitor()
        probe = PrecisionProbe(monitor, rate=1.0, budget_seconds=None)
        probe.sample()
        built = {stream_id: matcher for stream_id, (_, matcher) in probe._matchers.items()}
        assert built
        probe.sample()  # nothing changed: every matcher is reused
        assert all(probe._matchers[other][1] is matcher for other, matcher in built.items())
        stream_id = next(iter(built))
        graph = monitor.graph(stream_id)
        u, v, label = next(iter(graph.edges()))
        labels = graph.vertex_label(u), graph.vertex_label(v)
        # Delete and re-insert one edge: the graph is the same, its
        # mutation version is not, so that stream's matcher is rebuilt.
        monitor.apply(stream_id, EdgeChange.delete(u, v))
        monitor.apply(stream_id, EdgeChange.insert(u, v, label, *labels))
        probe.sample()
        assert probe._matchers[stream_id][1] is not built[stream_id]
        assert all(
            probe._matchers[other][1] is matcher
            for other, matcher in built.items()
            if other != stream_id
        )

    def test_sampled_rate_agrees_within_the_bound(self):
        """A fig14-style replay: the probe's rate-0.5 estimate and the
        offline ratio (every poll's candidates verified) agree within
        ``z * sqrt(p * (1-p) / checked)``, z = 3."""
        from repro.experiments.config import SMOKE
        from repro.experiments.harness import replay
        from repro.experiments.workloads import build_synthetic_stream_workload

        workload = build_synthetic_stream_workload(SMOKE, "dense").limited(
            num_queries=4, num_streams=4, timestamps=8
        )
        monitor = StreamMonitor(workload.queries, method="dsc")
        probe = PrecisionProbe(monitor, rate=0.5, budget_seconds=None, seed=3)
        offline = {"candidates": 0, "false_positives": 0}

        def verify_and_sample(emitted: set) -> None:
            offline["candidates"] += len(emitted)
            offline["false_positives"] += len(emitted) - len(monitor.verified_matches(emitted))
            probe.sample(emitted)

        replay(workload, monitor, "dsc", on_poll=verify_and_sample)
        checked, estimate = probe.stats["checked"], probe.fp_ratio_estimate
        # Real false positives, and a real sample: else the check is vacuous.
        assert offline["false_positives"] > 0
        assert 0 < checked < offline["candidates"]
        ratio = offline["false_positives"] / offline["candidates"]
        bound = 3.0 * sqrt(estimate * (1.0 - estimate) / checked)
        assert abs(ratio - estimate) <= bound + 1e-12, (
            f"offline {ratio:.4f} vs estimate {estimate:.4f} exceeds bound {bound:.4f}"
        )


# ----------------------------------------------------------------------
# per-engine pruning-power counters
# ----------------------------------------------------------------------
class TestEnginePruningCounters:
    @pytest.mark.parametrize("method", ["nl", "dsc", "skyline", "matrix"])
    def test_failed_probes_are_blamed(self, method):
        monitor = tiny_monitor(method=method)
        series = pruned_series(method)
        assert series, f"{method} recorded no pruned candidates"
        assert all(count > 0 for count in series.values())
        # Every blamed dimension is either a stringified NPV dimension
        # or the documented "combination" verdict.
        for dim in series:
            assert dim == "combination" or dim.startswith("(")

    def test_engines_agree_on_candidates_while_blaming(self):
        """Recording blame must not perturb the filter verdicts."""
        answers = {
            method: frozenset(tiny_monitor(method=method).matches())
            for method in ("nl", "dsc", "skyline", "matrix")
        }
        assert len(set(answers.values())) == 1

    def test_monitor_matches_records_candidate_counters(self):
        monitor = tiny_monitor()
        before = counter_value("filter.candidates")
        emitted = monitor.matches()
        assert counter_value("filter.candidates") - before == len(emitted) > 0


# ----------------------------------------------------------------------
# one recording site, one blame definition
# ----------------------------------------------------------------------
def _label(vertex: int) -> str:
    return "ABC"[vertex % 3]


def random_batch(rng: random.Random, graph: LabeledGraph) -> GraphChangeOperation:
    """Deletions first (a vertex whose last edge goes vanishes mid-batch),
    then insertions, some onto the vertices just removed."""
    edges = sorted(graph.edges(), key=str)
    changes = [
        EdgeChange.delete(u, v) for u, v, _ in rng.sample(edges, rng.randint(0, len(edges)))
    ]
    present = {frozenset((u, v)) for u, v, _ in edges}
    for change in changes:
        present.discard(frozenset((change.u, change.v)))
    for _ in range(rng.randint(0, 4)):
        u, v = rng.sample(range(8), 2)
        if frozenset((u, v)) not in present:
            present.add(frozenset((u, v)))
            changes.append(EdgeChange.insert(u, v, rng.choice("xy"), _label(u), _label(v)))
    return GraphChangeOperation(changes)


def random_query(rng: random.Random) -> LabeledGraph:
    size = rng.randint(1, 4)
    graph = LabeledGraph()
    for vertex in range(size):
        graph.add_vertex(vertex, rng.choice("ABC"))
    for vertex in range(1, size):
        graph.add_edge(vertex, rng.randrange(vertex), rng.choice("xy"))
    return graph


def lone_vertex_query() -> LabeledGraph:
    """A query whose first vector (vertex 0, isolated) is all-zero."""
    return LabeledGraph.from_vertices_and_edges([(0, "A"), (1, "A"), (2, "B")], [(1, 2, "x")])


class TestOneRecordingSite:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_every_engine_counts_the_same_pruned_pairs_at_every_poll(self, seed):
        """Over random streams, churned queries, an empty stream, an
        all-zero query vector and vertices removed mid-batch, each poll
        adds the same ``pruned{dim}`` counts on every engine and
        ``len(answer)`` to ``filter.candidates``, and the answers agree."""
        rng = random.Random(seed)
        queries = {f"q{i}": random_query(rng) for i in range(4)}
        queries["lone"] = lone_vertex_query()
        monitors = {name: StreamMonitor(queries, method=name) for name in ENGINE_NAMES}
        initial = {f"s{i}": random_query(rng) for i in range(2)}
        initial["empty"] = LabeledGraph()
        for monitor in monitors.values():
            for stream_id, graph in initial.items():
                monitor.add_stream(stream_id, graph)
        for tick in range(8):
            batches = {
                stream_id: random_batch(rng, monitors["nl"].graph(stream_id))
                for stream_id in ("s0", "s1")
            }
            churn = rng.random()
            newcomer = random_query(rng)
            per_engine = {}
            for name, monitor in monitors.items():
                monitor.apply_many(batches)
                if churn < 0.3:
                    monitor.register_query(f"t{tick}", newcomer)
                elif churn < 0.5 and len(monitor.query_ids()) > 1:
                    monitor.deregister_query(sorted(monitor.query_ids(), key=str)[0])
                before = pruned_series(name), counter_value("filter.candidates")
                answer = monitor.matches()
                after = pruned_series(name), counter_value("filter.candidates")
                assert after[1] - before[1] == len(answer), name
                increments = {
                    dim: count - before[0].get(dim, 0)
                    for dim, count in after[0].items()
                    if count != before[0].get(dim, 0)
                }
                per_engine[name] = (answer, increments)
            assert all(entry == per_engine["nl"] for entry in per_engine.values()), (
                tick,
                per_engine,
            )
