"""The observability layer: instruments, spans, merging, exposition.

Pins the contracts the rest of the PR leans on: ``le`` bucket edge
semantics, lossless merge (associative, identity ``{}``), span
nesting/ring bounds, the disabled fast path mutating nothing, and the
Prometheus text output actually parsing as Prometheus text (checked
with a small hand-written parser — the real client is not a
dependency).
"""

from __future__ import annotations

import json
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    Registry,
    merge_summaries,
)
from repro.obs.exposition import metric_name, render_json, render_prometheus


@pytest.fixture(autouse=True)
def clean_obs():
    """Each test gets an enabled, empty registry and span buffer; the
    session's global registry and switch are restored afterwards."""
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


# ----------------------------------------------------------------------
# instruments
# ----------------------------------------------------------------------
class TestCounter:
    def test_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.summary() == {"kind": "counter", "help": "", "value": 3.5}

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_disabled_is_noop(self):
        counter = Counter("c")
        counter.inc(3)
        obs.disable()
        counter.inc(100)
        assert counter.value == 3


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 13

    def test_disabled_is_noop(self):
        gauge = Gauge("g")
        obs.disable()
        gauge.set(42)
        assert gauge.value == 0


class TestHistogram:
    def test_value_on_edge_lands_in_that_bucket(self):
        hist = Histogram("h", buckets=(1.0, 2.0, 4.0))
        hist.observe(2.0)  # exactly on the second bound -> le="2" bucket
        assert hist.counts == [0, 1, 0, 0]

    def test_below_first_edge(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        hist.observe(0.5)
        assert hist.counts == [1, 0, 0]

    def test_overflow_bucket(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        hist.observe(100.0)
        assert hist.counts == [0, 0, 1]

    def test_sum_and_count(self):
        hist = Histogram("h", buckets=(1.0,))
        hist.observe(0.25)
        hist.observe(3.0)
        assert hist.count == 2
        assert hist.sum == pytest.approx(3.25)

    def test_rejects_empty_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())

    def test_rejects_non_increasing_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0, 2.0))

    def test_disabled_is_noop(self):
        hist = Histogram("h", buckets=(1.0,))
        obs.disable()
        hist.observe(0.5)
        assert hist.count == 0 and hist.sum == 0.0


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = Registry()
        assert registry.counter("c") is registry.counter("c")

    def test_kind_mismatch_raises(self):
        registry = Registry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_histogram_bounds_mismatch_raises(self):
        registry = Registry()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(1.0, 3.0))

    def test_catalogued_name_is_defined_by_its_catalog_row(self):
        """Kind, help and buckets come from ``repro.obs.catalog``; what
        the caller passes only defines uncatalogued names."""
        from repro.obs.catalog import CATALOG

        registry = Registry()
        polls = registry.counter("monitor.polls", help="ignored")
        assert polls.help == CATALOG["monitor.polls"][1]
        labelled = registry.counter("serve.rejected", labels={"reason": "rate"})
        assert labelled.help == CATALOG["serve.rejected"][1]
        sizes = registry.histogram("nnt.batch_size")
        assert sizes.bounds == tuple(float(b) for b in CATALOG["nnt.batch_size"][2])
        assert registry.histogram("nnt.batch_size", buckets=(1.0,)) is sizes
        apply = registry.histogram("monitor.apply.seconds", buckets=(1.0,))
        assert apply.bounds == obs.DEFAULT_LATENCY_BUCKETS
        with pytest.raises(TypeError, match="is a histogram, not a counter"):
            registry.counter("monitor.apply.seconds")
        with pytest.raises(TypeError, match="catalogued as a histogram"):
            registry.counter("monitor.matches.seconds")
        with pytest.raises(TypeError, match="catalogued as a gauge"):
            registry.histogram("runtime.inbox_depth")
        assert registry.counter("adhoc", help="mine").help == "mine"

    def test_reset_zeroes_but_keeps_registrations(self):
        registry = Registry()
        registry.counter("c").inc(5)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        registry.reset()
        assert registry.counter("c").value == 0
        hist = registry.histogram("h", buckets=(1.0,))
        assert hist.counts == [0, 0] and hist.count == 0
        assert registry.names() == ["c", "h"]

    def test_summary_is_sorted_and_plain(self):
        registry = Registry()
        registry.gauge("b").set(2)
        registry.counter("a").inc()
        summary = registry.summary()
        assert list(summary) == ["a", "b"]
        assert json.loads(json.dumps(summary)) == summary

    def test_instruments_pickle_as_registry_references(self):
        """Unpickling an instrument re-attaches to the process registry
        (fresh values) — what checkpoint restore needs."""
        local = obs.counter("pickled.counter", help="x")
        local.inc(7)
        clone = pickle.loads(pickle.dumps(local))
        assert clone is obs.counter("pickled.counter")
        hist = obs.histogram("pickled.hist", buckets=(1.0, 2.0))
        clone = pickle.loads(pickle.dumps(hist))
        assert clone is obs.histogram("pickled.hist", buckets=(1.0, 2.0))


# ----------------------------------------------------------------------
# merging
# ----------------------------------------------------------------------
def _registry_with(counter=0, gauge=0, observations=()):
    registry = Registry()
    registry.counter("c", help="c help").inc(counter)
    registry.gauge("g").inc(gauge)
    hist = registry.histogram("h", buckets=(1.0, 2.0))
    for value in observations:
        hist.observe(value)
    return registry


class TestMergeSummaries:
    def test_counters_and_gauges_sum(self):
        a = _registry_with(counter=2, gauge=1).summary()
        b = _registry_with(counter=3, gauge=4).summary()
        merged = merge_summaries([a, b])
        assert merged["c"]["value"] == 5
        assert merged["g"]["value"] == 5

    def test_histograms_add_elementwise(self):
        a = _registry_with(observations=[0.5, 1.5]).summary()
        b = _registry_with(observations=[1.5, 5.0]).summary()
        merged = merge_summaries([a, b])
        assert merged["h"]["counts"] == [1, 2, 1]
        assert merged["h"]["count"] == 4
        assert merged["h"]["sum"] == pytest.approx(8.5)

    def test_identity_is_empty_dict(self):
        summary = _registry_with(counter=2, observations=[0.5]).summary()
        assert merge_summaries([{}, summary]) == merge_summaries([summary, {}])
        assert merge_summaries([summary, {}]) == merge_summaries([summary])

    def test_merge_does_not_mutate_inputs(self):
        a = _registry_with(observations=[0.5]).summary()
        b = _registry_with(observations=[1.5]).summary()
        before = json.dumps([a, b], sort_keys=True)
        merge_summaries([a, b])
        assert json.dumps([a, b], sort_keys=True) == before

    def test_kind_mismatch_raises(self):
        with pytest.raises(ValueError):
            merge_summaries(
                [
                    {"x": {"kind": "counter", "help": "", "value": 1}},
                    {"x": {"kind": "gauge", "help": "", "value": 1}},
                ]
            )

    def test_bounds_mismatch_raises(self):
        histogram_a = Registry().histogram("h", buckets=(1.0,))
        histogram_b = Registry().histogram("h", buckets=(2.0,))
        with pytest.raises(ValueError):
            merge_summaries(
                [{"h": histogram_a.summary()}, {"h": histogram_b.summary()}]
            )

    @given(
        counts=st.lists(
            st.tuples(
                st.integers(0, 100),
                st.integers(-50, 50),
                st.lists(st.floats(0, 10, allow_nan=False), max_size=5),
            ),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_associative(self, counts):
        was_enabled = obs.enabled()
        obs.enable()
        try:
            a, b, c = (
                _registry_with(counter=x, gauge=y, observations=z).summary()
                for x, y, z in counts
            )
        finally:
            if not was_enabled:
                obs.disable()
        left = merge_summaries([merge_summaries([a, b]), c])
        right = merge_summaries([a, merge_summaries([b, c])])
        # Associative up to float rounding in the accumulated sums.
        assert left.keys() == right.keys()
        for name in left:
            entry_l, entry_r = left[name], right[name]
            assert entry_l.keys() == entry_r.keys()
            for field in entry_l:
                if field in ("sum", "value"):
                    assert entry_l[field] == pytest.approx(entry_r[field])
                else:
                    assert entry_l[field] == entry_r[field]


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_records_duration_and_attrs(self):
        with obs.span("stage.outer", stream="s0") as live:
            pass
        assert live.duration >= 0.0
        [record] = obs.spans()
        assert record.name == "stage.outer"
        assert record.attrs == {"stream": "s0"}
        assert record.parent is None and record.depth == 0
        assert not record.error

    def test_nesting_tracks_parent_and_depth(self):
        with obs.span("outer"):
            assert obs.span_depth() == 1
            with obs.span("inner"):
                assert obs.span_depth() == 2
        inner, outer = obs.spans()
        assert (inner.name, inner.parent, inner.depth) == ("inner", "outer", 1)
        assert (outer.name, outer.parent, outer.depth) == ("outer", None, 0)
        assert obs.span_depth() == 0

    def test_error_flag_set_on_exception(self):
        with pytest.raises(RuntimeError):
            with obs.span("failing"):
                raise RuntimeError("boom")
        [record] = obs.spans()
        assert record.error
        assert obs.span_depth() == 0  # stack unwound cleanly

    def test_feeds_latency_histogram(self):
        with obs.span("stage.timed"):
            pass
        hist = obs.get_registry().get("stage.timed.seconds")
        assert hist is not None and hist.count == 1

    def test_ring_buffer_is_bounded(self):
        obs.set_span_capacity(4)
        try:
            for index in range(10):
                with obs.span(f"s{index}"):
                    pass
            names = [record.name for record in obs.spans()]
            assert names == ["s6", "s7", "s8", "s9"]
        finally:
            obs.set_span_capacity(obs.DEFAULT_SPAN_CAPACITY)

    def test_wrapped_ring_keeps_ids_on_every_record(self):
        for _ in range(obs.DEFAULT_SPAN_CAPACITY + 64):
            with obs.span("ring"):
                pass
        records = obs.spans()
        assert len(records) == obs.DEFAULT_SPAN_CAPACITY
        assert all(record.trace_id and record.span_id for record in records)

    def test_set_span_capacity_rejects_non_positive(self):
        with pytest.raises(ValueError):
            obs.set_span_capacity(0)

    def test_iter_spans_filters_by_name(self):
        with obs.span("a"):
            pass
        with obs.span("b"):
            pass
        with obs.span("a"):
            pass
        assert len(list(obs.iter_spans("a"))) == 2
        assert len(list(obs.iter_spans())) == 3

    def test_disabled_records_nothing(self):
        obs.disable()
        with obs.span("ghost", key="value"):
            pass
        assert obs.spans() == []
        assert obs.get_registry().get("ghost.seconds") is None

    def test_disabled_span_is_shared_singleton(self):
        obs.disable()
        assert obs.span("x") is obs.span("y")


# ----------------------------------------------------------------------
# exposition
# ----------------------------------------------------------------------
def parse_prometheus_text(text: str) -> dict:
    """Tiny exposition-format parser: returns {metric: {labels-str: value}}
    and validates the structural rules the format imposes (TYPE before
    samples, counters end in _total, cumulative buckets non-decreasing,
    +Inf bucket equals _count)."""
    types: dict[str, str] = {}
    samples: dict[str, dict[str, float]] = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            _, _, metric, kind = line.split(" ", 3)
            assert kind in ("counter", "gauge", "histogram"), line
            assert metric not in types, f"duplicate TYPE for {metric}"
            types[metric] = kind
            continue
        assert not line.startswith("#"), f"unknown comment line: {line}"
        name_part, value_part = line.rsplit(" ", 1)
        if "{" in name_part:
            name, labels = name_part.split("{", 1)
            labels = "{" + labels
        else:
            name, labels = name_part, ""
        value = float(value_part)
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in types:
                base = name[: -len(suffix)]
                break
        assert base in types, f"sample {name} has no TYPE header"
        if types[base] == "counter":
            assert base.endswith("_total"), f"counter {base} lacks _total"
        samples.setdefault(name, {})[labels] = value
    for metric, kind in types.items():
        if kind != "histogram":
            continue
        # Bucket series group by their non-le labels (a labeled and an
        # unlabeled series of the same metric are distinct histograms).
        buckets = samples[f"{metric}_bucket"]
        cumulative: dict[str, list[float]] = {}
        inf_by_series: dict[str, float] = {}
        for labels, value in buckets.items():  # insertion order = render order
            assert 'le="' in labels, f"{metric}_bucket sample without le: {labels}"
            series = re.sub(r',?le="[^"]*"', "", labels)
            if series == "{}":
                series = ""
            run = cumulative.setdefault(series, [])
            assert not run or run[-1] <= value, (
                f"{metric}{labels} buckets not cumulative"
            )
            run.append(value)
            if 'le="+Inf"' in labels:
                inf_by_series[series] = value
        counts = samples[f"{metric}_count"]
        assert set(inf_by_series) == set(counts), f"{metric} series mismatch"
        for series, inf_value in inf_by_series.items():
            assert inf_value == counts[series], f"{metric}{series} +Inf != _count"
    return samples


class TestExposition:
    def test_metric_name_sanitizes(self):
        assert metric_name("nnt.batch_update.seconds") == (
            "repro_nnt_batch_update_seconds"
        )
        assert metric_name("0weird-name", prefix="") == "_weird_name"

    def test_counter_gets_total_suffix(self):
        obs.counter("events", help="all events").inc(3)
        text = render_prometheus(obs.get_registry().summary())
        assert "# TYPE repro_events_total counter" in text
        assert "repro_events_total 3" in text
        assert "# HELP repro_events_total all events" in text

    def test_histogram_buckets_are_cumulative_with_inf(self):
        hist = obs.histogram("lat", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 9.0):
            hist.observe(value)
        text = render_prometheus(obs.get_registry().summary())
        assert 'repro_lat_bucket{le="1"} 1' in text
        assert 'repro_lat_bucket{le="2"} 2' in text
        assert 'repro_lat_bucket{le="+Inf"} 3' in text
        assert "repro_lat_count 3" in text

    def test_empty_summary_renders_empty(self):
        assert render_prometheus({}) == ""

    def test_output_parses_as_prometheus_text(self):
        obs.counter("polls", help="candidate reads").inc(5)
        obs.gauge("depth").set(2)
        hist = obs.histogram("lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 3.0):
            hist.observe(value)
        text = render_prometheus(obs.get_registry().summary())
        samples = parse_prometheus_text(text)
        assert samples["repro_polls_total"][""] == 5
        assert samples["repro_depth"][""] == 2
        assert samples["repro_lat_count"][""] == 3

    def test_render_json_round_trips(self):
        obs.counter("c").inc(2)
        summary = obs.get_registry().summary()
        assert json.loads(render_json(summary)) == summary


class TestLabels:
    """Labelled instruments: identity, summary shape, escaping, merge."""

    def test_label_sets_are_distinct_series(self):
        obs.counter("hits", labels={"stream": "s0"}).inc(2)
        obs.counter("hits", labels={"stream": "s1"}).inc(3)
        obs.counter("hits").inc(1)
        summary = obs.get_registry().summary()
        assert summary['hits{stream="s0"}']["value"] == 2
        assert summary['hits{stream="s1"}']["value"] == 3
        assert summary["hits"]["value"] == 1
        assert summary['hits{stream="s0"}']["labels"] == {"stream": "s0"}
        # Unlabelled entries keep the pre-label summary shape exactly.
        assert "labels" not in summary["hits"]

    def test_label_order_does_not_matter(self):
        a = obs.counter("x", labels={"a": "1", "b": "2"})
        b = obs.counter("x", labels={"b": "2", "a": "1"})
        assert a is b

    def test_non_string_label_value_rejected(self):
        with pytest.raises(TypeError):
            obs.counter("bad", labels={"n": 3})

    def test_bad_label_name_rejected(self):
        with pytest.raises(ValueError):
            obs.counter("bad", labels={"0leading-digit": "v"})

    def test_escaping_golden(self):
        """The 0.0.4 escaping rules: backslash, double quote, newline."""
        from repro.obs import escape_label_value

        assert escape_label_value("plain") == "plain"
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value('say "hi"') == 'say \\"hi\\"'
        assert escape_label_value("two\nlines") == "two\\nlines"
        # Backslash escapes first, so an escaped quote stays escaped.
        assert escape_label_value('\\"') == '\\\\\\"'

    def test_escaped_values_render_and_parse(self):
        obs.counter("esc", labels={"v": 'a\\b"c\nd'}).inc(1)
        text = render_prometheus(obs.get_registry().summary())
        assert 'repro_esc_total{v="a\\\\b\\"c\\nd"} 1' in text
        parse_prometheus_text(text)

    def test_type_header_once_across_label_sets(self):
        obs.counter("hits", labels={"stream": "s0"}).inc()
        obs.counter("hits", labels={"stream": "s1"}).inc()
        obs.counter("hits").inc()
        text = render_prometheus(obs.get_registry().summary())
        assert text.count("# TYPE repro_hits_total counter") == 1
        samples = parse_prometheus_text(text)
        assert set(samples["repro_hits_total"]) == {
            "",
            '{stream="s0"}',
            '{stream="s1"}',
        }

    def test_labeled_histogram_renders_le_last_and_parses(self):
        obs.histogram(
            "lat", buckets=(1.0, 2.0), labels={"error": "ValueError"}
        ).observe(0.5)
        obs.histogram("lat", buckets=(1.0, 2.0)).observe(1.5)
        text = render_prometheus(obs.get_registry().summary())
        assert 'repro_lat_bucket{error="ValueError",le="1"} 1' in text
        assert 'repro_lat_count{error="ValueError"} 1' in text
        samples = parse_prometheus_text(text)
        assert samples["repro_lat_count"][""] == 1
        assert samples["repro_lat_count"]['{error="ValueError"}'] == 1

    def test_merge_sums_per_label_series(self):
        def build():
            registry = Registry()
            registry.counter("hits", labels={"stream": "s0"}).inc(2)
            registry.counter("hits", labels={"stream": "s1"}).inc(1)
            registry.counter("hits").inc(4)
            return registry.summary()

        merged = merge_summaries([build(), build()])
        assert merged['hits{stream="s0"}']["value"] == 4
        assert merged['hits{stream="s1"}']["value"] == 2
        assert merged["hits"]["value"] == 8
        assert merged['hits{stream="s0"}']["labels"] == {"stream": "s0"}

    def test_labeled_instrument_pickles_as_registry_reference(self):
        local = obs.counter("pick.labeled", labels={"k": "v"})
        local.inc(2)
        clone = pickle.loads(pickle.dumps(local))
        assert clone is obs.counter("pick.labeled", labels={"k": "v"})


class TestErrorSpans:
    def test_error_span_records_type_and_labeled_histogram(self):
        with pytest.raises(KeyError):
            with obs.span("stage.failing"):
                raise KeyError("missing")
        [record] = obs.spans()
        assert record.error
        assert record.error_type == "KeyError"
        registry = obs.get_registry()
        labeled = registry.get("stage.failing.seconds", labels={"error": "KeyError"})
        assert labeled is not None and labeled.count == 1
        # The success-path histogram stays untouched.
        plain = registry.get("stage.failing.seconds")
        assert plain is None or plain.count == 0

    def test_error_labeled_latency_renders_as_valid_prometheus(self):
        with pytest.raises(RuntimeError):
            with obs.span("stage.mixed"):
                raise RuntimeError("boom")
        with obs.span("stage.mixed"):
            pass
        text = render_prometheus(obs.get_registry().summary())
        samples = parse_prometheus_text(text)
        assert samples["repro_stage_mixed_seconds_count"][""] == 1
        assert samples["repro_stage_mixed_seconds_count"]['{error="RuntimeError"}'] == 1


class TestStatsCommand:
    """`repro stats` renders a dump as valid Prometheus text."""

    def _dump(self, tmp_path):
        obs.counter("monitor.polls", help="polls").inc(4)
        obs.histogram("monitor.apply.seconds", buckets=(0.001, 0.01)).observe(0.002)
        path = tmp_path / "dump.json"
        path.write_text(json.dumps(obs.get_registry().summary()))
        return path

    def test_prometheus_output_parses(self, tmp_path, capsys):
        from repro.cli import main

        path = self._dump(tmp_path)
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        samples = parse_prometheus_text(out)
        assert samples["repro_monitor_polls_total"][""] == 4
        assert samples["repro_monitor_apply_seconds_count"][""] == 1

    def test_unwraps_full_stats_dump(self, tmp_path, capsys):
        from repro.cli import main

        obs.counter("wrapped").inc(9)
        path = tmp_path / "full.json"
        path.write_text(
            json.dumps({"merged_obs": obs.get_registry().summary(), "workers": {}})
        )
        assert main(["stats", str(path)]) == 0
        assert "repro_wrapped_total 9" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        from repro.cli import main

        path = self._dump(tmp_path)
        assert main(["stats", str(path), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["monitor.polls"]["value"] == 4

    def test_rejects_garbage(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "garbage.json"
        path.write_text("not json at all")
        assert main(["stats", str(path)]) == 2


# ----------------------------------------------------------------------
# the switch
# ----------------------------------------------------------------------
class TestSwitch:
    def test_enable_disable_roundtrip(self):
        obs.disable()
        assert not obs.enabled()
        obs.enable()
        assert obs.enabled()

    def test_off_values(self):
        from repro.obs.state import _OFF_VALUES

        assert {"0", "false", "off", "no"} == set(_OFF_VALUES)


# ----------------------------------------------------------------------
# the instrumented hot paths actually report
# ----------------------------------------------------------------------
class TestInstrumentedMonitor:
    def test_monitor_populates_registry(self):
        from repro.core.monitor import StreamMonitor
        from repro.graph.labeled_graph import LabeledGraph
        from repro.graph.operations import EdgeChange

        query = LabeledGraph.from_vertices_and_edges(
            [(0, "A"), (1, "B")], [(0, 1, "x")]
        )
        monitor = StreamMonitor({"q0": query})
        monitor.add_stream("s0")
        monitor.apply("s0", EdgeChange.insert(1, 2, "x", "A", "B"))
        assert monitor.matches() == {("s0", "q0")}
        assert monitor.verified_matches() == {("s0", "q0")}
        summary = obs.get_registry().summary()
        assert summary["monitor.changes"]["value"] == 1
        assert summary["monitor.polls"]["value"] >= 1
        assert summary["monitor.verifier_calls"]["value"] == 1
        assert summary["monitor.apply.seconds"]["count"] == 1
        assert summary["nnt.deltas_delivered"]["value"] >= 1
        assert summary["join.dsc.dominance_checks"]["value"] >= 1

    def test_disabled_monitor_leaves_registry_empty(self):
        from repro.core.monitor import StreamMonitor
        from repro.graph.labeled_graph import LabeledGraph
        from repro.graph.operations import EdgeChange

        obs.disable()
        query = LabeledGraph.from_vertices_and_edges(
            [(0, "A"), (1, "B")], [(0, 1, "x")]
        )
        monitor = StreamMonitor({"q0": query})
        monitor.add_stream("s0")
        monitor.apply("s0", EdgeChange.insert(1, 2, "x", "A", "B"))
        assert monitor.matches() == {("s0", "q0")}
        summary = obs.get_registry().summary()
        counted = [
            entry
            for entry in summary.values()
            if entry.get("value", 0) or entry.get("count", 0)
        ]
        assert counted == []
