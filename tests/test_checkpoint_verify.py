"""Tests for monitor checkpointing."""

import json

import pytest

from repro import EdgeChange, LabeledGraph, StreamMonitor
from repro.core.checkpoint import load_monitor, save_monitor
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
