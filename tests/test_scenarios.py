"""KPI-gated E2E scenario suites (fraud-ring, network-intrusion).

Each scenario under ``tests/fixtures/scenarios/`` is a deterministic
seeded workload in the ``{raw,expected,scenarios}`` layout: a pattern
graph-set and a serve text-protocol event script in ``raw/``, a golden
networkx-oracle truth file in ``expected/`` (regenerate both with
``generate.py`` in that directory), and a descriptor in ``scenarios/``
binding them to KPI gates.  Both scenarios churn the query set
mid-stream — an ``addq`` once the streams are warm, a ``delq`` near the
end — so the gates hold across live registration and retirement:

* **recall == 1.0** — at every poll, every oracle-true pair is flagged
  (the paper's no-false-negative guarantee, end to end through the
  serve layer);
* **false-positive ratio** — flagged-but-not-true pairs stay under the
  descriptor's bound (the filter must stay useful, not just sound);
* **p95 commit latency** — from the ``serve.commit.seconds`` histogram
  the commit spans feed.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import obs
from repro.core.monitor import StreamMonitor
from repro.dashboard import histogram_quantile
from repro.graph.io import read_graph_set
from repro.obs import Registry
from repro.serve.session import serve_lines

SCENARIO_DIR = Path(__file__).parent / "fixtures" / "scenarios"
SCENARIOS = sorted(path.name for path in (SCENARIO_DIR / "scenarios").glob("*.json"))


@pytest.fixture(autouse=True)
def clean_obs():
    previous = obs.set_registry(Registry())
    obs.clear_spans()
    was_enabled = obs.enabled()
    obs.enable()
    yield
    obs.set_registry(previous)
    obs.clear_spans()
    if not was_enabled:
        obs.disable()


def load_descriptor(name: str) -> dict:
    return json.loads((SCENARIO_DIR / "scenarios" / name).read_text(encoding="utf-8"))


def run_scenario(descriptor: dict) -> tuple[StreamMonitor, list[dict]]:
    raw_dir = SCENARIO_DIR / "raw"
    patterns = dict(read_graph_set(raw_dir / descriptor["patterns"]))
    queries = {key: patterns[key] for key in descriptor["initial_queries"]}
    monitor = StreamMonitor(queries, method=descriptor["method"])
    lines = [
        line.replace("{RAW}", str(raw_dir))
        for line in (raw_dir / descriptor["events"]).read_text().splitlines()
    ]
    replies: list[dict] = []
    serve_lines(monitor, lines, replies.append)
    return monitor, replies


@pytest.mark.parametrize("scenario", SCENARIOS)
class TestScenarioSuite:
    def test_kpi_gates(self, scenario):
        descriptor = load_descriptor(scenario)
        expected = json.loads(
            (SCENARIO_DIR / "expected" / descriptor["expected"]).read_text()
        )
        monitor, replies = run_scenario(descriptor)

        assert all(reply.get("ok") for reply in replies), [
            reply for reply in replies if not reply.get("ok")
        ]
        reported = [
            {tuple(pair) for pair in reply["matches"]}
            for reply in replies
            if reply.get("cmd") == "matches"
        ]
        polls = expected["polls"]
        assert len(reported) == len(polls)

        # KPI 1: recall == 1.0 at every poll (zero false negatives).
        true_total = 0
        flagged_total = 0
        for poll, flagged in zip(polls, reported):
            truth = {tuple(pair) for pair in poll["truth"]}
            missed = truth - flagged
            assert not missed, f"t={poll['t']}: recall < 1.0, missed {missed}"
            true_total += len(truth)
            flagged_total += len(flagged)

        # KPI 2: the filter stays tight, not merely sound.
        false_positives = flagged_total - true_total
        fp_ratio = false_positives / flagged_total if flagged_total else 0.0
        assert fp_ratio <= descriptor["kpi"]["max_fp_ratio"], (
            f"fp_ratio {fp_ratio:.3f} over budget "
            f"{descriptor['kpi']['max_fp_ratio']}"
        )

        # KPI 3: p95 commit latency from the span-fed histogram.
        commit_hist = obs.get_registry().summary().get("serve.commit.seconds")
        assert commit_hist and commit_hist["count"] == len(polls)
        p95 = histogram_quantile(commit_hist, 0.95)
        assert p95 is not None and p95 <= descriptor["kpi"]["p95_commit_seconds"]

        # Exactness at rest: final verified matches equal the oracle.
        final = {tuple(pair) for pair in expected["final_verified"]}
        assert set(monitor.verified_matches()) == final

    def test_churn_commands_ran_live(self, scenario):
        """The mid-stream addq/delq really went through the bridge: the
        replies carry trace ids and the final query set reflects them."""
        descriptor = load_descriptor(scenario)
        monitor, replies = run_scenario(descriptor)
        adds = [reply for reply in replies if reply.get("cmd") == "addq"]
        drops = [reply for reply in replies if reply.get("cmd") == "delq"]
        assert adds and drops
        for reply in adds + drops:
            assert reply["ok"] is True
            assert reply.get("trace"), "churn reply is missing its trace id"
        final_ids = set(monitor.query_ids())
        assert {reply["query"] for reply in adds} <= final_ids
        assert not ({reply["query"] for reply in drops} & final_ids)


def test_descriptors_are_complete():
    assert SCENARIOS, "no scenario descriptors found"
    names = set()
    for scenario in SCENARIOS:
        descriptor = load_descriptor(scenario)
        names.add(descriptor["name"])
        for key in ("patterns", "events"):
            assert (SCENARIO_DIR / "raw" / descriptor[key]).exists()
        assert (SCENARIO_DIR / "expected" / descriptor["expected"]).exists()
        kpi = descriptor["kpi"]
        assert kpi["recall"] == 1.0
        assert 0.0 < kpi["max_fp_ratio"] < 1.0
        assert kpi["p95_commit_seconds"] > 0.0
    assert {"fraud_ring", "intrusion"} <= names
