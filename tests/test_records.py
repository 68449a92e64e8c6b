"""The records on the served paths: immutable value records are
NamedTuples, the change records slotted classes, and none of them is a
dataclass.  Each keeps a dataclass's record behaviour -- assignment
raises, equal fields give equal records (and, where hashable, equal
hashes), ``repr`` names the fields -- and the ones that cross the
process boundary survive a real worker round trip."""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.metrics import Confusion
from repro.core.monitor import MatchEvent
from repro.graph import LabeledGraph
from repro.graph.operations import EdgeChange, GraphChangeOperation
from repro.join.base import QueryChange, QueryVector
from repro.nnt.projection import DimensionScheme
from repro.obs import Registry, SpanRecord, TraceContext
from repro.obs import trace as trace_mod
from repro.obs.slo import SloRule
from repro.runtime import ShardedMonitor
from repro.runtime.worker import WorkerSpec
from repro.serve import protocol
from repro.serve.server import ServeConfig

QUERY = LabeledGraph.from_vertices_and_edges([(0, "A"), (1, "B")], [(0, 1, "x")])
CHANGE = EdgeChange.insert(1, 2, "x", "A", "B")

RECORDS = {
    "EdgeChange": lambda: EdgeChange.insert(1, 2, "x", "A", "B"),
    "GraphChangeOperation": lambda: GraphChangeOperation([CHANGE, EdgeChange.delete(3, 4)]),
    "DimensionScheme": lambda: DimensionScheme(include_edge_label=True),
    "QueryVector": lambda: QueryVector(0, "q", 1, {(1, "A", "B"): 2}, 0, 1),
    "QueryChange": lambda: QueryChange("q", 3, group_added=True, indices=(0, 1)),
    "Confusion": lambda: Confusion(3, 1, 0),
    "MatchEvent": lambda: MatchEvent("appeared", "s", "q"),
    "SpanRecord": lambda: SpanRecord(
        "monitor.apply", 1.0, 0.5, 0, None, False, "t-1", "s-2", None, "coordinator",
        None, {"stream": "s"},
    ),
    "TraceContext": lambda: TraceContext("t-1", "s-2"),
    "Frame": lambda: trace_mod.Frame("monitor.apply", "s-2", "t-1", None, None, True),
    "SloRule": lambda: SloRule("depth", "runtime.inbox_depth", "gauge_max", 10.0),
    "WorkerSpec": lambda: WorkerSpec({"q": QUERY}, ring="ring-0"),
    "ServeConfig": lambda: ServeConfig(admission_capacity=8),
    **{
        name: (lambda cls=getattr(protocol, name), args=args: cls(*args, verb="v"))
        for name, args in {
            "AddStream": ("s", "graphs.txt", "g0"),
            "AddQuery": ("q", None, None, (("0", "A"),), ()),
            "DelQuery": ("q",),
            "Edit": ("s", CHANGE),
            "BatchEdit": ("s", (CHANGE,)),
            "Commit": (),
            "Poll": (),
            "Matches": (),
            "Stats": (),
            "Checkpoint": (),
            "Quit": (),
        }.items()
    },
}


def _fields(record) -> tuple[str, ...]:
    return getattr(record, "_fields", None) or record.__slots__


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
def test_record_behaviour(make) -> None:
    record, twin = make(), make()
    assert not hasattr(record, "__dict__")
    fields = _fields(record)
    with pytest.raises(AttributeError):
        setattr(record, fields[0], None)
    assert record == twin and not record != twin
    try:
        assert hash(record) == hash(twin)
    except TypeError:  # holds a dict: unhashable, as the dataclass was
        pass
    text = repr(record)
    assert text.startswith(type(record).__name__ + "(")
    for field in fields:
        assert f"{field}=" in text


def test_the_change_records_are_not_equal_to_their_fields() -> None:
    assert CHANGE != tuple(CHANGE.__reduce__()[1])
    assert GraphChangeOperation([CHANGE]) != GraphChangeOperation([CHANGE, CHANGE])


@pytest.fixture
def traced():
    previous = obs.set_registry(Registry())
    obs.clear_spans()
    trace_mod.reset()
    was_enabled = obs.enabled()
    obs.enable()
    yield
    obs.set_registry(previous)
    obs.clear_spans()
    trace_mod.reset()
    if not was_enabled:
        obs.disable()


def test_span_trace_and_event_records_round_trip_through_a_worker(traced) -> None:
    with ShardedMonitor({"q": QUERY}, num_workers=1) as monitor:
        monitor.add_stream("s")
        monitor.apply("s", GraphChangeOperation([EdgeChange.insert(1, 2, "x", "A", "B")]))
        assert monitor.events() == [MatchEvent("appeared", "s", "q")]
        monitor.apply("s", EdgeChange.delete(1, 2))
        (event,) = monitor.events()
        records = monitor.trace_spans()
    assert type(event) is MatchEvent and event == MatchEvent("vanished", "s", "q")
    worker = [r for r in records if r.process == "shard-0" and r.name == "monitor.apply"]
    assert worker and all(type(r) is SpanRecord for r in records)
    assert not hasattr(worker[0], "__dict__")
    # A worker's root span adopted the TraceContext its command carried.
    by_id = {r.span_id: r for r in records}
    parent = by_id[worker[0].parent_id]
    assert parent.process == "coordinator"
    assert worker[0].trace_id == parent.trace_id
