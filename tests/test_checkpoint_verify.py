"""Tests for monitor checkpointing and the caching verifier."""

import json
import random

import pytest

from repro import EdgeChange, LabeledGraph, StreamMonitor
from repro.core.checkpoint import load_monitor, save_monitor
from repro.core.verify import CachingVerifier
from repro.nnt.projection import DimensionScheme


def chain(labels):
    graph = LabeledGraph()
    for index, label in enumerate(labels):
        graph.add_vertex(f"n{index}", label)
    for index in range(len(labels) - 1):
        graph.add_edge(f"n{index}", f"n{index + 1}", "-")
    return graph


def make_monitor(method="dsc"):
    monitor = StreamMonitor(
        {"ab": chain(["A", "B"]), "abc": chain(["A", "B", "C"])}, method=method
    )
    monitor.add_stream("s0", chain(["A", "B", "C", "A"]))
    monitor.add_stream("s1", chain(["C", "C"]))
    return monitor


class TestCheckpoint:
    def test_round_trip_answers(self, tmp_path):
        original = make_monitor()
        save_monitor(original, tmp_path / "ckpt")
        restored = load_monitor(tmp_path / "ckpt")
        assert restored.matches() == original.matches()
        assert restored.verified_matches() == original.verified_matches()
        assert restored.method == original.method
        assert restored.depth_limit == original.depth_limit

    @pytest.mark.parametrize("method", ("nl", "dsc", "skyline"))
    def test_restored_monitor_accepts_updates(self, tmp_path, method):
        original = make_monitor(method)
        save_monitor(original, tmp_path / "ckpt")
        restored = load_monitor(tmp_path / "ckpt")
        for monitor in (original, restored):
            monitor.apply("s1", EdgeChange.insert("x", "y", "-", "A", "B"))
        assert restored.matches() == original.matches()

    def test_scheme_preserved(self, tmp_path):
        monitor = StreamMonitor(
            {"ab": chain(["A", "B"])},
            scheme=DimensionScheme(include_edge_label=True),
        )
        monitor.add_stream("s", chain(["A", "B"]))
        save_monitor(monitor, tmp_path / "ckpt")
        restored = load_monitor(tmp_path / "ckpt")
        assert restored.scheme.include_edge_label is True
        assert restored.matches() == monitor.matches()

    def test_manifest_contents(self, tmp_path):
        save_monitor(make_monitor(), tmp_path / "ckpt")
        manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
        assert manifest["format"] == 1
        assert manifest["query_ids"] == ["ab", "abc"]
        assert manifest["stream_ids"] == ["s0", "s1"]

    def test_unsupported_format_rejected(self, tmp_path):
        directory = tmp_path / "ckpt"
        save_monitor(make_monitor(), directory)
        manifest = json.loads((directory / "manifest.json").read_text())
        manifest["format"] = 99
        (directory / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError):
            load_monitor(directory)

    def test_empty_monitor(self, tmp_path):
        monitor = StreamMonitor({"ab": chain(["A", "B"])})
        save_monitor(monitor, tmp_path / "ckpt")
        restored = load_monitor(tmp_path / "ckpt")
        assert restored.stream_ids() == []
        assert restored.matches() == set()


class TestCachingVerifier:
    def test_matches_plain_verification(self):
        monitor = make_monitor()
        verifier = CachingVerifier(monitor)
        assert verifier.verified_matches() == monitor.verified_matches()

    def test_cache_hits_on_quiet_polls(self):
        monitor = make_monitor()
        verifier = CachingVerifier(monitor)
        verifier.verified_matches()
        first = verifier.stats["verifications"]
        assert first > 0
        verifier.verified_matches()  # nothing changed
        assert verifier.stats["verifications"] == first
        assert verifier.stats["cache_hits"] >= first

    def test_reverifies_after_change(self):
        monitor = make_monitor()
        verifier = CachingVerifier(monitor)
        verifier.verified_matches()
        before = verifier.stats["verifications"]
        # Delete and re-insert the same edge: the stream version advances
        # while the candidate pairs stay in place, forcing re-verification.
        monitor.apply("s0", EdgeChange.delete("n0", "n1"))
        monitor.apply("s0", EdgeChange.insert("n0", "n1", "-", "A", "B"))
        result = verifier.verified_matches()
        assert verifier.stats["verifications"] > before
        assert result == monitor.verified_matches()

    def test_churn_quiet_poll_and_eviction(self):
        """After stream churn it answers as the monitor does; a second poll
        with no change is all cache hits; a pair that left the candidate
        set leaves the verdict cache."""
        monitor = make_monitor()
        verifier = CachingVerifier(monitor)
        verifier.verified_matches()
        monitor.apply("s1", EdgeChange.insert("x", "y", "-", "A", "B"))
        monitor.apply("s0", EdgeChange.delete("n2", "n3"))
        assert verifier.verified_matches() == monitor.verified_matches()
        assert ("s1", "ab") in verifier._verdicts

        before = dict(verifier.stats)
        verifier.verified_matches()
        assert verifier.stats == {
            "verifications": before["verifications"],
            "cache_hits": before["cache_hits"] + len(monitor.matches()),
        }

        monitor.apply("s1", EdgeChange.delete("x", "y"))
        assert ("s1", "ab") not in monitor.matches()
        verifier.verified_matches()
        assert ("s1", "ab") not in verifier._verdicts

    def test_randomized_equivalence(self):
        rng = random.Random(2024)
        monitor = make_monitor()
        verifier = CachingVerifier(monitor)
        for step in range(60):
            graph = monitor.graph("s0")
            edges = list(graph.edges())
            if edges and rng.random() < 0.4:
                u, v, _ = rng.choice(edges)
                monitor.apply("s0", EdgeChange.delete(u, v))
            else:
                vertices = list(graph.vertices())
                if len(vertices) >= 2:
                    u, v = rng.sample(vertices, 2)
                    if not graph.has_edge(u, v):
                        monitor.apply("s0", EdgeChange.insert(u, v, "-"))
            if step % 3 == 0:
                assert verifier.verified_matches() == monitor.verified_matches()
        # A quiet double poll must be all cache hits when candidates exist.
        verifier.verified_matches()
        hits_before = verifier.stats["cache_hits"]
        verifications_before = verifier.stats["verifications"]
        verifier.verified_matches()
        assert verifier.stats["verifications"] == verifications_before
        if monitor.matches():
            assert verifier.stats["cache_hits"] > hits_before
