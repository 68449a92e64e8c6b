"""Tests for dynamic query sets and the match-event API (extensions the
paper lists as future work)."""

import random

import pytest

from repro import EdgeChange, LabeledGraph, StreamMonitor
from repro.core.monitor import MatchEvent

from .conftest import random_labeled_graph


def chain(labels):
    graph = LabeledGraph()
    for index, label in enumerate(labels):
        graph.add_vertex(index, label)
    for index in range(len(labels) - 1):
        graph.add_edge(index, index + 1, "-")
    return graph


class TestDynamicQueries:
    @pytest.mark.parametrize("method", ("nl", "dsc", "skyline"))
    def test_add_query_sees_existing_streams(self, method):
        monitor = StreamMonitor({"ab": chain(["A", "B"])}, method=method)
        monitor.add_stream("s", chain(["A", "B", "C"]))
        monitor.register_query("bc", chain(["B", "C"]))
        assert monitor.matches() == {("s", "ab"), ("s", "bc")}
        assert sorted(monitor.query_ids()) == ["ab", "bc"]

    @pytest.mark.parametrize("method", ("nl", "dsc", "skyline"))
    def test_added_query_tracks_future_updates(self, method):
        monitor = StreamMonitor({"ab": chain(["A", "B"])}, method=method)
        monitor.add_stream("s")
        monitor.register_query("cd", chain(["C", "D"]))
        monitor.apply("s", EdgeChange.insert(0, 1, "-", "C", "D"))
        assert monitor.matches() == {("s", "cd")}
        monitor.apply("s", EdgeChange.delete(0, 1))
        assert monitor.matches() == set()

    def test_remove_query(self):
        monitor = StreamMonitor(
            {"ab": chain(["A", "B"]), "bc": chain(["B", "C"])}, method="dsc"
        )
        monitor.add_stream("s", chain(["A", "B", "C"]))
        monitor.deregister_query("ab")
        assert monitor.matches() == {("s", "bc")}
        assert monitor.query_ids() == ["bc"]

    def test_duplicate_query_rejected(self):
        monitor = StreamMonitor({"ab": chain(["A", "B"])})
        with pytest.raises(ValueError):
            monitor.register_query("ab", chain(["A", "B"]))

    def test_remove_missing_query_rejected(self):
        monitor = StreamMonitor({"ab": chain(["A", "B"])})
        with pytest.raises(KeyError):
            monitor.deregister_query("nope")

    def test_rebuild_preserves_engine_agreement(self):
        rng = random.Random(606)
        source = random_labeled_graph(rng, 7, extra_edges=3)
        monitors = {
            m: StreamMonitor({"q0": chain(["A", "B"])}, method=m)
            for m in ("nl", "dsc", "skyline")
        }
        for monitor in monitors.values():
            monitor.add_stream(0, source)
            monitor.register_query("q1", chain(["B", "C", "A"]))
            monitor.deregister_query("q0")
        results = {frozenset(m.matches()) for m in monitors.values()}
        assert len(results) == 1


class TestPollEvents:
    def test_appear_and_vanish(self):
        monitor = StreamMonitor({"ab": chain(["A", "B"])})
        monitor.add_stream("s")
        assert monitor.events() == []
        monitor.apply("s", EdgeChange.insert(0, 1, "-", "A", "B"))
        events = monitor.events()
        assert events == [MatchEvent("appeared", "s", "ab")]
        assert monitor.events() == []  # no change, no events
        monitor.apply("s", EdgeChange.delete(0, 1))
        assert monitor.events() == [MatchEvent("vanished", "s", "ab")]

    def test_stream_removal_clears_state(self):
        monitor = StreamMonitor({"ab": chain(["A", "B"])})
        monitor.add_stream("s", chain(["A", "B"]))
        monitor.events()
        monitor.remove_stream("s")
        # the pair is gone silently: no stale "vanished" event for a
        # stream the caller explicitly removed
        assert monitor.events() == []

    def test_query_removal_clears_state(self):
        monitor = StreamMonitor({"ab": chain(["A", "B"])})
        monitor.add_stream("s", chain(["A", "B"]))
        monitor.events()
        monitor.deregister_query("ab")
        assert monitor.events() == []

    def test_added_query_emits_appearance(self):
        monitor = StreamMonitor({"ab": chain(["A", "B"])})
        monitor.add_stream("s", chain(["A", "B", "C"]))
        monitor.events()
        monitor.register_query("bc", chain(["B", "C"]))
        assert monitor.events() == [MatchEvent("appeared", "s", "bc")]

    def test_events_sorted_deterministically(self):
        monitor = StreamMonitor(
            {"ab": chain(["A", "B"]), "bc": chain(["B", "C"])}
        )
        monitor.add_stream("s2")
        monitor.add_stream("s1")
        monitor.apply("s1", EdgeChange.insert(0, 1, "-", "A", "B"))
        monitor.apply("s2", EdgeChange.insert(0, 1, "-", "B", "C"))
        events = monitor.events()
        assert [(e.stream_id, e.query_id) for e in events] == [("s1", "ab"), ("s2", "bc")]
