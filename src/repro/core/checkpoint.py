"""Checkpoint / restore for :class:`StreamMonitor`.

A checkpoint directory holds a JSON manifest (method, depth, scheme,
id maps) plus one text file for the query set and one per stream graph
(the formats of :mod:`repro.graph.io`).  Restoring rebuilds the monitor
from the snapshots; engine state is re-derived (it is a pure function of
the graphs), so a restored monitor answers exactly like the original and
accepts further updates.

Note on identifiers: the text format serializes vertex ids and labels
as strings, so the manifest records each graph's vertex-id *kind* —
graphs whose ids are all ints restore with int ids (``"int"``), anything
else round-trips as strings (``"str"``, also the fallback for manifests
written before the kind was recorded).  Stream/query ids are stored in
the JSON manifest and must be JSON-representable.

Shard-scoped checkpoints: the multi-process runtime
(:mod:`repro.runtime`) snapshots each worker's private monitor with a
``shard`` annotation (shard id, shard count, snapshot ordinal) so a
reader can tell which slice of the fleet it holds; the annotation is
opaque to this module beyond being stored and returned.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from ..graph.io import read_graph_set, write_graph_set
from ..graph.labeled_graph import LabeledGraph
from ..nnt.projection import DimensionScheme
from .monitor import StreamMonitor

MANIFEST = "manifest.json"
QUERIES = "queries.txt"


def _id_kind(graph: LabeledGraph) -> str:
    """``"int"`` when every vertex id is an int (bools excluded), else
    ``"str"`` — the two kinds the text format can round-trip exactly."""
    vertices = list(graph.vertices())
    if vertices and all(
        isinstance(v, int) and not isinstance(v, bool) for v in vertices
    ):
        return "int"
    return "str"


def _coerce_ids(graph: LabeledGraph, kind: str) -> LabeledGraph:
    """Rebuild ``graph`` with vertex ids converted back to ``kind``."""
    if kind != "int":
        return graph
    restored = LabeledGraph()
    for vertex, label in graph.vertex_items():
        restored.add_vertex(int(vertex), label)
    for u, v, label in graph.edges():
        restored.add_edge(int(u), int(v), label)
    return restored


def save_monitor(
    monitor: StreamMonitor,
    directory: str | Path,
    shard: Mapping[str, Any] | None = None,
) -> Path:
    """Write a restorable snapshot of ``monitor`` into ``directory``.

    ``shard`` is an optional JSON-representable annotation (e.g. the
    runtime's ``{"shard_id": k, "num_shards": n}``) stored verbatim in
    the manifest and surfaced again by :func:`checkpoint_stats`.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    query_ids = list(monitor.query_set.queries)
    stream_ids = monitor.stream_ids()
    manifest: dict[str, Any] = {
        "format": 1,
        "method": monitor.method,
        "depth_limit": monitor.depth_limit,
        "include_edge_label": monitor.scheme.include_edge_label,
        "query_ids": query_ids,
        "stream_ids": stream_ids,
        "query_id_kinds": [
            _id_kind(monitor.query_set.queries[query_id]) for query_id in query_ids
        ],
        "stream_id_kinds": [
            _id_kind(monitor.graph(stream_id)) for stream_id in stream_ids
        ],
    }
    if shard is not None:
        manifest["shard"] = dict(shard)
    (directory / MANIFEST).write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    write_graph_set(
        [monitor.query_set.queries[query_id] for query_id in query_ids],
        directory / QUERIES,
        names=[f"q{i}" for i in range(len(query_ids))],
    )
    for i, stream_id in enumerate(stream_ids):
        write_graph_set([monitor.graph(stream_id)], directory / f"stream_{i}.txt")
    return directory


def load_monitor(directory: str | Path) -> StreamMonitor:
    """Rebuild a :class:`StreamMonitor` from :func:`save_monitor` output."""
    directory = Path(directory)
    manifest = json.loads((directory / MANIFEST).read_text(encoding="utf-8"))
    if manifest.get("format") != 1:
        raise ValueError(f"unsupported checkpoint format: {manifest.get('format')!r}")

    query_graphs = [graph for _, graph in read_graph_set(directory / QUERIES)]
    query_ids = manifest["query_ids"]
    if len(query_graphs) != len(query_ids):
        raise ValueError("checkpoint query count does not match its manifest")
    query_kinds = manifest.get("query_id_kinds", ["str"] * len(query_ids))
    monitor = StreamMonitor(
        {
            query_id: _coerce_ids(graph, kind)
            for query_id, graph, kind in zip(query_ids, query_graphs, query_kinds)
        },
        method=manifest["method"],
        depth_limit=manifest["depth_limit"],
        scheme=DimensionScheme(include_edge_label=manifest["include_edge_label"]),
    )
    stream_ids = manifest["stream_ids"]
    stream_kinds = manifest.get("stream_id_kinds", ["str"] * len(stream_ids))
    for i, (stream_id, kind) in enumerate(zip(stream_ids, stream_kinds)):
        (_, graph), = read_graph_set(directory / f"stream_{i}.txt")
        monitor.add_stream(stream_id, _coerce_ids(graph, kind))
    return monitor


def checkpoint_stats(directory: str | Path) -> dict[str, Any]:
    """Summarize a checkpoint directory without rebuilding the monitor:
    manifest essentials, the shard annotation (if any), and on-disk
    footprint — what the runtime's recovery log and ``repro serve``
    report after each snapshot."""
    directory = Path(directory)
    manifest = json.loads((directory / MANIFEST).read_text(encoding="utf-8"))
    files = sorted(p for p in directory.iterdir() if p.is_file())
    return {
        "path": str(directory),
        "format": manifest.get("format"),
        "method": manifest.get("method"),
        "depth_limit": manifest.get("depth_limit"),
        "num_queries": len(manifest.get("query_ids", [])),
        "num_streams": len(manifest.get("stream_ids", [])),
        "shard": manifest.get("shard"),
        "num_files": len(files),
        "total_bytes": sum(p.stat().st_size for p in files),
    }
