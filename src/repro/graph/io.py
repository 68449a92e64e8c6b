"""Plain-text serialization for graphs, graph sets and graph streams.

The graph format is a superset of the classic gSpan transaction format::

    t # <name>
    v <id> <vertex-label>
    e <u> <v> <edge-label>

A stream file holds one ``t #`` block for the initial graph followed by
``op`` blocks, one per timestamp::

    op
    ins <u> <v> <edge-label> [<u-label> <v-label>]
    del <u> <v>

Identifiers and labels are serialized as whitespace-free strings; reading
therefore yields string ids and labels.  All writers round-trip with the
matching readers (property-tested).
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Container, Iterable, TextIO

from .labeled_graph import GraphError, LabeledGraph
from .operations import DELETE, INSERT, EdgeChange, GraphChangeOperation
from .stream import GraphStream


def is_token(text: str) -> bool:
    """Is ``text`` one token of the format: non-empty, without whitespace?"""
    return bool(text) and not any(ch.isspace() for ch in text)


def text_clash(vertex: object, *holders: Container) -> str | None:
    """Why ``vertex`` cannot be written beside the ids in ``holders``, or
    ``None``.  The format writes an int id and its decimal string (``1``
    and ``"1"``) as the same token, and reading back cannot tell them
    apart.  The other-typed twin is looked up, not searched for."""
    twin: object = None
    if isinstance(vertex, int) and not isinstance(vertex, bool):
        twin = str(vertex)
    elif isinstance(vertex, str):
        try:
            number = int(vertex)
        except ValueError:
            return None
        twin = number if str(number) == vertex else None
    if twin is not None and any(twin in holder for holder in holders):
        return f"vertex {vertex!r} and vertex {twin!r} write as the same text"
    return None


def _token(value: object) -> str:
    text = str(value)
    if not is_token(text):
        raise GraphError(f"cannot serialize token {value!r}: empty or has whitespace")
    return text


# ----------------------------------------------------------------------
# graphs
# ----------------------------------------------------------------------
def write_graph(graph: LabeledGraph, out: TextIO, name: str = "g") -> None:
    """Write one graph block to ``out``."""
    out.write(f"t # {_token(name)}\n")
    for vertex, label in sorted(graph.vertex_items(), key=lambda kv: str(kv[0])):
        out.write(f"v {_token(vertex)} {_token(label)}\n")
    for u, v, label in sorted(graph.edges(), key=lambda e: (str(e[0]), str(e[1]))):
        out.write(f"e {_token(u)} {_token(v)} {_token(label)}\n")


def graph_to_string(graph: LabeledGraph, name: str = "g") -> str:
    """One graph block as a string (inverse of :func:`graph_from_string`)."""
    buffer = io.StringIO()
    write_graph(graph, buffer, name)
    return buffer.getvalue()


def write_graph_set(
    graphs: Iterable[LabeledGraph], path: str | Path, names: Iterable[str] | None = None
) -> None:
    """Write many graphs to one file, one ``t #`` block each; block
    names are keys, so they must be distinct."""
    graphs = list(graphs)
    block_names = list(names) if names is not None else [f"g{i}" for i in range(len(graphs))]
    if len(block_names) != len(graphs):
        raise GraphError("names and graphs must have equal length")
    _check_unique(map(str, block_names), path)
    with open(path, "w", encoding="utf-8") as out:
        for name, graph in zip(block_names, graphs):
            write_graph(graph, out, name)


def _check_unique(names: Iterable[str], where: object) -> None:
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise GraphError(f"duplicate graph block name {name!r} in {where}")
        seen.add(name)


def _parse_blocks(lines: Iterable[str]) -> list[tuple[str, list[list[str]]]]:
    """Split a graph file into ``(name, rows)`` blocks."""
    blocks: list[tuple[str, list[list[str]]]] = []
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "t":
            if len(parts) < 3 or parts[1] != "#":
                raise GraphError(f"malformed graph header: {line!r}")
            blocks.append((parts[2], []))
        else:
            if not blocks:
                raise GraphError(f"data line before any 't #' header: {line!r}")
            blocks[-1][1].append(parts)
    return blocks


def _graph_from_rows(rows: list[list[str]]) -> LabeledGraph:
    graph = LabeledGraph()
    for parts in rows:
        if parts[0] == "v":
            if len(parts) != 3:
                raise GraphError(f"malformed vertex line: {' '.join(parts)!r}")
            graph.add_vertex(parts[1], parts[2])
        elif parts[0] == "e":
            if len(parts) != 4:
                raise GraphError(f"malformed edge line: {' '.join(parts)!r}")
            graph.add_edge(parts[1], parts[2], parts[3])
        else:
            raise GraphError(f"unknown record type {parts[0]!r} in graph block")
    return graph


def read_graph_set(path: str | Path) -> list[tuple[str, LabeledGraph]]:
    """Read all ``(name, graph)`` blocks from a graph-set file; a block
    name that repeats is refused, since callers key graphs by name."""
    with open(path, "r", encoding="utf-8") as source:
        blocks = _parse_blocks(source)
    _check_unique((name for name, _ in blocks), path)
    return [(name, _graph_from_rows(rows)) for name, rows in blocks]


def graph_from_string(text: str) -> LabeledGraph:
    """Parse exactly one graph block from a string."""
    blocks = _parse_blocks(text.splitlines())
    if len(blocks) != 1:
        raise GraphError(f"expected exactly one graph block, found {len(blocks)}")
    return _graph_from_rows(blocks[0][1])


# ----------------------------------------------------------------------
# streams
# ----------------------------------------------------------------------
def write_stream(stream: GraphStream, path: str | Path) -> None:
    """Write a :class:`GraphStream` (initial graph + op blocks) to a file."""
    with open(path, "w", encoding="utf-8") as out:
        write_graph(stream.initial, out, stream.name or "stream")
        for operation in stream.operations:
            out.write("op\n")
            for change in operation:
                if change.op == INSERT:
                    fields = ["ins", _token(change.u), _token(change.v), _token(change.edge_label)]
                    if change.u_label is not None or change.v_label is not None:
                        fields.append(_token(change.u_label if change.u_label is not None else "?"))
                        fields.append(_token(change.v_label if change.v_label is not None else "?"))
                    out.write(" ".join(fields) + "\n")
                else:
                    out.write(f"del {_token(change.u)} {_token(change.v)}\n")


def read_stream(path: str | Path) -> GraphStream:
    """Read a :class:`GraphStream` written by :func:`write_stream`."""
    with open(path, "r", encoding="utf-8") as source:
        lines = [line.strip() for line in source if line.strip()]
    if not lines or not lines[0].startswith("t "):
        raise GraphError("stream file must start with a 't #' graph block")

    header = lines[0].split()
    if len(header) < 3 or header[1] != "#":
        raise GraphError(f"malformed stream header: {lines[0]!r}")
    name = header[2]

    graph_rows: list[list[str]] = []
    index = 1
    while index < len(lines) and lines[index].split()[0] in ("v", "e"):
        graph_rows.append(lines[index].split())
        index += 1
    initial = _graph_from_rows(graph_rows)

    operations: list[GraphChangeOperation] = []
    current: list[EdgeChange] | None = None
    for line in lines[index:]:
        parts = line.split()
        if parts[0] == "op":
            if current is not None:
                operations.append(GraphChangeOperation(current))
            current = []
        elif parts[0] == INSERT:
            if current is None:
                raise GraphError("change line before any 'op' block")
            if len(parts) == 4:
                current.append(EdgeChange.insert(parts[1], parts[2], parts[3]))
            elif len(parts) == 6:
                u_label = None if parts[4] == "?" else parts[4]
                v_label = None if parts[5] == "?" else parts[5]
                current.append(EdgeChange.insert(parts[1], parts[2], parts[3], u_label, v_label))
            else:
                raise GraphError(f"malformed ins line: {line!r}")
        elif parts[0] == DELETE:
            if current is None:
                raise GraphError("change line before any 'op' block")
            if len(parts) != 3:
                raise GraphError(f"malformed del line: {line!r}")
            current.append(EdgeChange.delete(parts[1], parts[2]))
        else:
            raise GraphError(f"unknown record type {parts[0]!r} in stream file")
    if current is not None:
        operations.append(GraphChangeOperation(current))
    return GraphStream(initial, operations, name=name)
