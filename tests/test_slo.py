"""The SLO engine: burn-rate hysteresis, objectives, metric exports.

Every test drives the state machine with a fake clock and a hand-built
timeline, so the ok -> warn -> breach -> recover trajectory is pinned
evaluation by evaluation — including the asymmetric hysteresis (one bad
evaluation warns, ``breach_after`` breach, ``clear_after`` healthy ones
recover) and the no-data-is-ok convention.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs import Registry
from repro.obs.slo import BREACH, DEFAULT_RULES, OK, STATE_CODES, WARN, SloEngine, SloRule
from repro.obs.timeline import Timeline


@pytest.fixture(autouse=True)
def clean_obs():
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


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, dt: float = 1.0) -> float:
        self.now += dt
        return self.now


def gauge_entry(value: float) -> dict:
    return {"kind": "gauge", "help": "", "value": value}


def counter_entry(value: float) -> dict:
    return {"kind": "counter", "help": "", "value": value}


def hist_entry(counts: list, total_sum: float) -> dict:
    return {
        "kind": "histogram",
        "help": "",
        "bounds": [0.1, 1.0],
        "counts": list(counts),
        "sum": total_sum,
        "count": sum(counts),
    }


def gauge_rule(**overrides) -> SloRule:
    base = dict(
        name="depth",
        metric="runtime.inbox_depth",
        objective="gauge_max",
        threshold=10.0,
        warn_after=1,
        breach_after=3,
        clear_after=2,
    )
    base.update(overrides)
    return SloRule(**base)


def feed_gauge(clock: FakeClock, timeline: Timeline, value: float) -> None:
    timeline.sample({"runtime.inbox_depth": gauge_entry(value)}, t=clock.tick())


# ----------------------------------------------------------------------
# rule validation
# ----------------------------------------------------------------------
class TestSloRule:
    def test_rejects_unknown_objective(self):
        with pytest.raises(ValueError):
            gauge_rule(objective="p99")

    def test_rejects_breach_before_warn(self):
        with pytest.raises(ValueError):
            gauge_rule(warn_after=3, breach_after=1)

    def test_rejects_bad_quantile_and_window(self):
        with pytest.raises(ValueError):
            gauge_rule(q=1.5)
        with pytest.raises(ValueError):
            gauge_rule(window=0.0)

    def test_gauge_min_violates_below_threshold(self):
        rule = gauge_rule(objective="gauge_min", threshold=0.5)
        assert rule.violated_by(0.4)
        assert not rule.violated_by(0.6)

    def test_default_rules_are_valid_and_unique(self):
        names = [rule.name for rule in DEFAULT_RULES]
        assert len(set(names)) == len(names)
        SloEngine()  # constructs without raising

    def test_duplicate_rule_names_rejected(self):
        with pytest.raises(ValueError):
            SloEngine(rules=[gauge_rule(), gauge_rule()])


# ----------------------------------------------------------------------
# the burn-rate state machine
# ----------------------------------------------------------------------
class TestHysteresis:
    def test_ok_warn_breach_recover_trajectory(self):
        clock = FakeClock()
        timeline = Timeline(clock=clock)
        engine = SloEngine(rules=[gauge_rule()], timeline=timeline, clock=clock)

        # Healthy: stays ok.
        feed_gauge(clock, timeline, 3.0)
        engine.evaluate()
        assert engine.state_of("depth") == OK

        # First violation: warn immediately (warn_after=1).
        feed_gauge(clock, timeline, 50.0)
        engine.evaluate()
        assert engine.state_of("depth") == WARN

        # Second violation: still warn (breach_after=3).
        feed_gauge(clock, timeline, 50.0)
        engine.evaluate()
        assert engine.state_of("depth") == WARN

        # Third consecutive violation: breach.
        feed_gauge(clock, timeline, 50.0)
        engine.evaluate()
        assert engine.state_of("depth") == BREACH

        # One healthy evaluation is not enough to clear (clear_after=2).
        feed_gauge(clock, timeline, 2.0)
        engine.evaluate()
        assert engine.state_of("depth") == BREACH

        # Second consecutive healthy evaluation recovers.
        feed_gauge(clock, timeline, 2.0)
        engine.evaluate()
        assert engine.state_of("depth") == OK

    def test_flapping_never_reaches_breach(self):
        clock = FakeClock()
        timeline = Timeline(clock=clock)
        engine = SloEngine(rules=[gauge_rule()], timeline=timeline, clock=clock)
        for _ in range(5):
            feed_gauge(clock, timeline, 50.0)
            engine.evaluate()
            feed_gauge(clock, timeline, 1.0)
            engine.evaluate()
        assert engine.state_of("depth") != BREACH

    def test_breach_counter_counts_transitions_not_evaluations(self):
        clock = FakeClock()
        timeline = Timeline(clock=clock)
        engine = SloEngine(rules=[gauge_rule()], timeline=timeline, clock=clock)
        for _ in range(6):  # stays breached after the third evaluation
            feed_gauge(clock, timeline, 50.0)
            engine.evaluate()
        snap = engine.snapshot()["rules"][0]
        assert snap["state"] == BREACH
        assert snap["breaches"] == 1

    def test_no_data_is_ok(self):
        clock = FakeClock()
        timeline = Timeline(clock=clock)
        engine = SloEngine(rules=[gauge_rule()], timeline=timeline, clock=clock)
        timeline.sample({}, t=clock.tick())
        results = engine.evaluate()
        assert results[0]["state"] == OK
        assert results[0]["value"] is None

    def test_no_data_heals_a_warned_rule(self):
        clock = FakeClock()
        timeline = Timeline(clock=clock)
        engine = SloEngine(
            rules=[gauge_rule(clear_after=1)], timeline=timeline, clock=clock
        )
        feed_gauge(clock, timeline, 50.0)
        engine.evaluate()
        assert engine.state_of("depth") == WARN
        # The gauge disappears from later samples beyond the window.
        clock.tick(gauge_rule().window + 1.0)
        timeline.sample({}, t=clock.now)
        engine.evaluate()
        assert engine.state_of("depth") == OK


# ----------------------------------------------------------------------
# objectives
# ----------------------------------------------------------------------
class TestObjectives:
    def test_quantile_objective_uses_windowed_percentile(self):
        clock = FakeClock()
        timeline = Timeline(clock=clock)
        rule = SloRule(
            "p95", "serve.commit.seconds", "quantile", 0.5, q=0.95,
            warn_after=1, breach_after=1,
        )
        engine = SloEngine(rules=[rule], timeline=timeline, clock=clock)
        timeline.sample(
            {"serve.commit.seconds": hist_entry([0, 0, 0], 0.0)}, t=clock.tick()
        )
        timeline.sample(
            {"serve.commit.seconds": hist_entry([0, 0, 10], 50.0)}, t=clock.tick()
        )
        engine.evaluate()
        assert engine.state_of("p95") == BREACH
        assert engine.snapshot()["rules"][0]["value"] == pytest.approx(1.0)

    def test_rate_objective(self):
        clock = FakeClock()
        timeline = Timeline(clock=clock)
        rule = SloRule(
            "rejects", "serve.rejected", "rate_max", 1.0,
            warn_after=1, breach_after=1,
        )
        engine = SloEngine(rules=[rule], timeline=timeline, clock=clock)
        timeline.sample({"serve.rejected": counter_entry(0)}, t=clock.tick())
        timeline.sample({"serve.rejected": counter_entry(10)}, t=clock.tick())
        engine.evaluate()  # 10 rejects over 1s >> 1/s
        assert engine.state_of("rejects") == BREACH


# ----------------------------------------------------------------------
# exports + snapshot
# ----------------------------------------------------------------------
class TestExports:
    def test_state_gauge_and_breach_counter_exported(self):
        clock = FakeClock()
        timeline = Timeline(clock=clock)
        engine = SloEngine(
            rules=[gauge_rule(breach_after=1)], timeline=timeline, clock=clock
        )
        feed_gauge(clock, timeline, 50.0)
        engine.evaluate()
        summary = obs.get_registry().summary()
        assert summary['slo.state{rule="depth"}']["value"] == STATE_CODES[BREACH]
        assert summary['slo.breaches{rule="depth"}']["value"] == 1

    def test_worst_ranks_across_rules(self):
        clock = FakeClock()
        timeline = Timeline(clock=clock)
        rules = [
            gauge_rule(name="a", breach_after=1),
            gauge_rule(name="b", threshold=1e9),
        ]
        engine = SloEngine(rules=rules, timeline=timeline, clock=clock)
        assert engine.worst == OK
        feed_gauge(clock, timeline, 50.0)
        engine.evaluate()
        assert engine.state_of("a") == BREACH
        assert engine.state_of("b") == OK
        assert engine.worst == BREACH
        assert engine.snapshot()["worst"] == BREACH

    def test_snapshot_shape(self):
        engine = SloEngine(rules=[gauge_rule()], timeline=Timeline())
        snap = engine.snapshot()
        assert snap["worst"] == OK
        (rule,) = snap["rules"]
        assert rule["name"] == "depth"
        assert rule["metric"] == "runtime.inbox_depth"
        assert rule["q"] is None  # not a quantile objective
        assert rule["state"] == OK
        assert rule["changed_at"] is None

    def test_evaluate_without_timeline_raises(self):
        with pytest.raises(ValueError):
            SloEngine(rules=[gauge_rule()]).evaluate()

    def test_every_default_rule_metric_is_catalogued(self):
        from repro.obs import catalog

        for rule in DEFAULT_RULES:
            assert catalog.known(rule.metric), rule.metric
