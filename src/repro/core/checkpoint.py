"""Checkpoint / restore: one on-disk format, one writer, one loader.

A checkpoint directory holds a JSON manifest (method, depth, scheme,
id maps, the names of the data files) plus one text file for the query
set and one per stream graph (the formats of :mod:`repro.graph.io`).
Engine state is re-derived — it is a pure function of the graphs and
the query set — so a monitor of any class, on any number of workers,
rebuilt from them answers like the original and accepts further updates.

:func:`write_checkpoint` takes that state itself (every monitor exports
through it) and replaces a previous export atomically: data files go
under names the current manifest does not use, the new manifest is
committed last with one ``os.replace``, and only then are the files it
no longer names unlinked.  A reader, or a writer that dies at any point,
sees the previous export or the new one, never a mix.  (Nothing is
fsynced: that holds across a killed process, not across a power cut.)

Note on identifiers: the text format serializes vertex ids and labels
as strings, so the manifest records each graph's vertex-id *kind* —
``"int"`` when every id is an int, ``"str"`` when none is, and for a
graph that mixes the two the list of its int ids — and the restore is
exact.  What the text cannot carry is refused with ``ValueError``
before any file is written: an id that is neither a ``str`` nor an
``int``, two ids with the same text (``1`` and ``"1"``), a label that
is not a ``str``, an empty string or one with whitespace (the text
format's tokens).  Stream/query ids are stored in the JSON manifest and
must be JSON-representable.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable, Mapping

from ..graph.io import is_token, read_graph_set, text_clash, write_graph_set
from ..graph.labeled_graph import LabeledGraph
from ..nnt.projection import DimensionScheme
from .monitor import StreamMonitor

MANIFEST = "manifest.json"
#: Only files named like its own data files are ever unlinked by a writer.
_DATA_PREFIXES = ("queries-", "stream-")
#: A graph's vertex-id kind in the manifest: ``"int"``, ``"str"``, or the
#: int ids of a graph that mixes the two.
IdKind = str | list[int]


def _is_int(vertex: Any) -> bool:
    return isinstance(vertex, int) and not isinstance(vertex, bool)


def _check_writable(role: str, graph_id: Any, graph: LabeledGraph) -> None:
    """Refuse (``ValueError``) a graph the text format cannot restore."""
    for vertex, label in graph.vertex_items():
        where = f"{role} {graph_id!r}: vertex {vertex!r}"
        if not (isinstance(vertex, str) or _is_int(vertex)):
            raise ValueError(f"{where} is neither a str nor an int id")
        clash = text_clash(vertex, graph)
        if clash:
            raise ValueError(f"{role} {graph_id!r}: {clash}")
        if not (isinstance(label, str) and is_token(label)):
            raise ValueError(f"{where} has label {label!r}, which is not a token str")
        if not is_token(str(vertex)):
            raise ValueError(f"{where} is not a token: empty or has whitespace")
    for u, v, label in graph.edges():
        if not (isinstance(label, str) and is_token(label)):
            raise ValueError(
                f"{role} {graph_id!r}: edge ({u!r}, {v!r}) has label {label!r}, "
                "which is not a token str"
            )


def _id_kind(graph: LabeledGraph) -> IdKind:
    """``"int"`` when every vertex id is an int, ``"str"`` when none is,
    else the sorted int ids of a graph that mixes the two."""
    ints = sorted(v for v in graph.vertices() if _is_int(v))
    if not ints:
        return "str"
    return "int" if len(ints) == graph.num_vertices else ints


def _coerce_ids(graph: LabeledGraph, kind: IdKind) -> LabeledGraph:
    """Rebuild ``graph`` with its int ids (all of them, or those ``kind``
    lists) converted back from text."""
    if kind == "str":
        return graph
    ints = None if kind == "int" else {str(i) for i in kind}

    def restore(vertex: str) -> Any:
        return int(vertex) if ints is None or vertex in ints else vertex

    restored = LabeledGraph()
    for vertex, label in graph.vertex_items():
        restored.add_vertex(restore(vertex), label)
    for u, v, label in graph.edges():
        restored.add_edge(restore(u), restore(v), label)
    return restored


def _read_graphs(path: Path, kinds: list[IdKind]) -> list[LabeledGraph]:
    """One data file's graphs with their vertex-id kinds restored
    (``ValueError`` when file and manifest disagree on the count)."""
    blocks = read_graph_set(path)
    return [_coerce_ids(graph, kind) for (_, graph), kind in zip(blocks, kinds, strict=True)]


def _read_manifest(directory: Path) -> dict[str, Any]:
    manifest = json.loads((directory / MANIFEST).read_text(encoding="utf-8"))
    if manifest.get("format") != 1:
        raise ValueError(f"unsupported checkpoint format: {manifest.get('format')!r}")
    return manifest


def write_checkpoint(
    directory: str | Path,
    queries: Mapping[Any, LabeledGraph],
    streams: Mapping[Any, LabeledGraph],
    method: str,
    depth_limit: int,
    scheme: DimensionScheme,
) -> dict[str, Any]:
    """Replace ``directory``'s export with this state (commit protocol:
    the module docstring); returns its :func:`checkpoint_stats`."""
    for role, graphs in (("query", queries), ("stream", streams)):
        for graph_id, graph in graphs.items():
            _check_writable(role, graph_id, graph)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    try:
        generation = _read_manifest(directory)["generation"] + 1
    except (OSError, ValueError, KeyError):
        generation = 1  # no export yet (or not one a reader would accept)
    manifest: dict[str, Any] = {
        "format": 1,
        "generation": generation,
        "method": method,
        "depth_limit": depth_limit,
        "include_edge_label": scheme.include_edge_label,
        "query_ids": list(queries),
        "stream_ids": list(streams),
        "query_id_kinds": [_id_kind(graph) for graph in queries.values()],
        "stream_id_kinds": [_id_kind(graph) for graph in streams.values()],
        "query_file": f"queries-{generation}.txt",
        "stream_files": [f"stream-{generation}-{i}.txt" for i in range(len(streams))],
    }
    write_graph_set(
        queries.values(),
        directory / manifest["query_file"],
        names=[f"q{i}" for i in range(len(queries))],
    )
    for name, graph in zip(manifest["stream_files"], streams.values()):
        write_graph_set([graph], directory / name)
    pending = directory / (MANIFEST + ".tmp")
    pending.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    os.replace(pending, directory / MANIFEST)  # the commit point
    named = {manifest["query_file"], *manifest["stream_files"]}
    for path in directory.iterdir():
        if path.name.startswith(_DATA_PREFIXES) and path.name not in named:
            path.unlink()
    return checkpoint_stats(directory)


def save_monitor(monitor: StreamMonitor, directory: str | Path) -> dict[str, Any]:
    """Write a restorable snapshot of ``monitor`` into ``directory``."""
    return write_checkpoint(
        directory,
        monitor.query_set.queries,
        {stream_id: monitor.graph(stream_id) for stream_id in monitor.stream_ids()},
        monitor.method,
        monitor.depth_limit,
        monitor.scheme,
    )


def load_monitor(
    directory: str | Path,
    factory: Callable[..., Any] = StreamMonitor,
    **options: Any,
) -> Any:
    """Rebuild a monitor from a checkpoint directory: ``factory`` (any
    monitor class; ``options`` are its other keyword parameters) over the
    exported query set, method, depth limit and scheme, then every
    stream's graph through ``add_stream`` — a fresh monitor's own path."""
    directory = Path(directory)
    manifest = _read_manifest(directory)
    queries = _read_graphs(directory / manifest["query_file"], manifest["query_id_kinds"])
    streams = [
        _read_graphs(directory / name, [kind])[0]
        for name, kind in zip(manifest["stream_files"], manifest["stream_id_kinds"], strict=True)
    ]
    monitor = factory(
        dict(zip(manifest["query_ids"], queries, strict=True)),
        method=manifest["method"],
        depth_limit=manifest["depth_limit"],
        scheme=DimensionScheme(include_edge_label=manifest["include_edge_label"]),
        **options,
    )
    try:
        for stream_id, graph in zip(manifest["stream_ids"], streams, strict=True):
            monitor.add_stream(stream_id, graph)
    except BaseException:
        monitor.close()  # a half-restored fleet must not outlive the error
        raise
    return monitor


def checkpoint_stats(directory: str | Path) -> dict[str, Any]:
    """Summarize a checkpoint directory without rebuilding the monitor:
    manifest essentials and on-disk footprint — what ``checkpoint()``
    returns and ``repro serve`` reports after each export."""
    directory = Path(directory)
    manifest = _read_manifest(directory)
    names = [MANIFEST, manifest["query_file"], *manifest["stream_files"]]
    return {
        "path": str(directory),
        "format": manifest["format"],
        "generation": manifest["generation"],
        "method": manifest["method"],
        "depth_limit": manifest["depth_limit"],
        "num_queries": len(manifest["query_ids"]),
        "num_streams": len(manifest["stream_ids"]),
        "num_files": len(names),
        "total_bytes": sum((directory / name).stat().st_size for name in names),
    }
