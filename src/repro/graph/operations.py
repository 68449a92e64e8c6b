"""Graph change operations (Definitions 2.4-2.5 of the paper).

A single edge change is the paper's triple ``<op, u, v>`` extended with the
labels needed to materialize it: the edge label, and vertex labels for
endpoints that do not exist yet (vertex insertion is expressed, as in the
paper, by inserting that vertex's edges).

A :class:`GraphChangeOperation` is a batch of edge changes applied at one
timestamp.  Following Section III of the paper, a batch is sequentialized
with **all deletions first, then all insertions**; vertices left isolated
by deletions are dropped (the paper never keeps isolated vertices).

Both types are fixed-layout records (frozen, slotted, no ``__dict__``)
that pickle as their constructor arguments: a change is held, buffered
and shipped to workers by the hundred thousand, and a load re-runs the
constructor's checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Literal

from .labeled_graph import DEFAULT_EDGE_LABEL, GraphError, Label, LabeledGraph, VertexId

Op = Literal["ins", "del"]

INSERT: Op = "ins"
DELETE: Op = "del"


@dataclass(frozen=True, slots=True)
class EdgeChange:
    """One edge insertion or deletion, ``<op, u, v>`` plus labels.

    ``u_label`` / ``v_label`` are only consulted when the endpoint does not
    exist in the target graph at application time (i.e. vertex insertion).
    """

    op: Op
    u: VertexId
    v: VertexId
    edge_label: Label = DEFAULT_EDGE_LABEL
    u_label: Label | None = None
    v_label: Label | None = None

    def __post_init__(self) -> None:
        if self.op not in (INSERT, DELETE):
            raise ValueError(f"op must be 'ins' or 'del', got {self.op!r}")
        if self.u == self.v:
            raise ValueError("self loops are not supported")

    def __reduce__(self) -> tuple:
        # The fields, not slot state: about a third of the dump time of
        # the generated __getstate__ path, and a load that re-runs
        # __post_init__.
        return (
            EdgeChange,
            (self.op, self.u, self.v, self.edge_label, self.u_label, self.v_label),
        )

    @staticmethod
    def insert(
        u: VertexId,
        v: VertexId,
        edge_label: Label = DEFAULT_EDGE_LABEL,
        u_label: Label | None = None,
        v_label: Label | None = None,
    ) -> "EdgeChange":
        return EdgeChange(INSERT, u, v, edge_label, u_label, v_label)

    @staticmethod
    def delete(u: VertexId, v: VertexId) -> "EdgeChange":
        return EdgeChange(DELETE, u, v)


@dataclass(frozen=True, slots=True)
class GraphChangeOperation:
    """A batch of edge changes applied atomically at one timestamp (Def 2.4)."""

    changes: tuple[EdgeChange, ...] = field(default_factory=tuple)

    def __init__(self, changes: Iterable[EdgeChange] = ()) -> None:
        object.__setattr__(self, "changes", tuple(changes))

    def __reduce__(self) -> tuple:
        return (GraphChangeOperation, (self.changes,))

    def __iter__(self) -> Iterator[EdgeChange]:
        return iter(self.changes)

    def __len__(self) -> int:
        return len(self.changes)

    def __bool__(self) -> bool:
        return bool(self.changes)

    @property
    def deletions(self) -> tuple[EdgeChange, ...]:
        return tuple(c for c in self.changes if c.op == DELETE)

    @property
    def insertions(self) -> tuple[EdgeChange, ...]:
        return tuple(c for c in self.changes if c.op == INSERT)

    def sequentialized(self) -> tuple[EdgeChange, ...]:
        """Deletions first, then insertions (the paper's processing order)."""
        return self.deletions + self.insertions


def apply_change(graph: LabeledGraph, change: EdgeChange) -> None:
    """Apply a single edge change to ``graph`` in place.

    Insertions create missing endpoints (their labels must be supplied on
    the change).  Deletions drop endpoints that become isolated.
    """
    if change.op == INSERT:
        _apply_insert(graph, change)
    else:
        _apply_delete(graph, change)


def _apply_insert(graph: LabeledGraph, change: EdgeChange) -> None:
    """Refused inserts (duplicate edge, new endpoint without a label)
    raise before anything is touched, like ``NNTIndex.insert_edge``."""
    if graph.has_edge(change.u, change.v):
        raise GraphError(f"edge ({change.u!r}, {change.v!r}) already exists")
    endpoints = ((change.u, change.u_label), (change.v, change.v_label))
    for vertex, label in endpoints:
        if label is None and not graph.has_vertex(vertex):
            raise GraphError(
                f"insertion of edge ({change.u!r}, {change.v!r}) creates "
                f"vertex {vertex!r} but no label was provided"
            )
    for vertex, label in endpoints:
        if not graph.has_vertex(vertex):
            graph.add_vertex(vertex, label)
    graph.add_edge(change.u, change.v, change.edge_label)


def _apply_delete(graph: LabeledGraph, change: EdgeChange) -> None:
    graph.remove_edge(change.u, change.v)
    for vertex in (change.u, change.v):
        if graph.has_vertex(vertex) and graph.degree(vertex) == 0:
            graph.remove_vertex(vertex)


def apply_operation(graph: LabeledGraph, operation: GraphChangeOperation) -> None:
    """Apply a whole batch in place: deletions first, then insertions."""
    for change in operation.sequentialized():
        apply_change(graph, change)


def apply_batch_validated(
    graph: LabeledGraph, batch: GraphChangeOperation | EdgeChange
) -> list[tuple]:
    """Apply ``batch`` to ``graph``, all or nothing.

    Runs the exact mutation sequence a monitor runs (deletions first,
    then insertions; endpoints left isolated are dropped), so a batch a
    monitor would refuse (duplicate insert, missing delete, unlabeled
    new vertex) raises :class:`GraphError` *here* — with every change of
    the batch that had already applied undone, leaving ``graph`` exactly
    as it was.  Returns the undo log of the applied batch, for a caller
    that has to take it back later (:func:`undo_batch`).
    """
    changes = (batch,) if isinstance(batch, EdgeChange) else batch.sequentialized()
    undo: list[tuple] = []
    try:
        for change in changes:
            u, v = change.u, change.v
            if change.op == INSERT:
                created = tuple(w for w in (u, v) if not graph.has_vertex(w))
                _apply_insert(graph, change)
                undo.append((INSERT, u, v, created))
            else:
                record = (
                    DELETE,
                    u,
                    v,
                    graph.edge_label(u, v),
                    graph.vertex_label(u),
                    graph.vertex_label(v),
                )
                _apply_delete(graph, change)
                undo.append(record)
    except BaseException:
        undo_batch(graph, undo)
        raise
    return undo


def undo_batch(graph: LabeledGraph, undo: list[tuple]) -> None:
    """Revert a batch :func:`apply_batch_validated` applied to ``graph``
    (nothing else may have touched the graph in between).  One record per
    applied change: ``(INSERT, u, v, created_endpoints)`` or
    ``(DELETE, u, v, edge_label, u_label, v_label)``."""
    for record in reversed(undo):
        if record[0] == INSERT:
            _, u, v, created = record
            graph.remove_edge(u, v)
            for vertex in created:
                graph.remove_vertex(vertex)
        else:
            _, u, v, edge_label, u_label, v_label = record
            for vertex, label in ((u, u_label), (v, v_label)):
                if not graph.has_vertex(vertex):
                    graph.add_vertex(vertex, label)
            graph.add_edge(u, v, edge_label)


def diff_graphs(old: LabeledGraph, new: LabeledGraph) -> GraphChangeOperation:
    """Change operation that rewrites ``old`` into ``new``.

    Edges present only in ``old`` become deletions; edges present only in
    ``new`` (or whose label changed) become insertions (label changes are a
    delete+insert pair).  Vertex labels of shared ids must agree: a batch
    of edge changes cannot relabel a vertex, so a relabel raises
    :class:`GraphError` naming the vertex.
    """
    for vertex, label in old.vertex_items():
        if vertex in new and new.vertex_label(vertex) != label:
            raise GraphError(
                f"vertex {vertex!r} is labelled {label!r} in old and "
                f"{new.vertex_label(vertex)!r} in new; edge changes cannot relabel it"
            )
    old_edges = {frozenset((u, v)): label for u, v, label in old.edges()}
    new_edges = {frozenset((u, v)): label for u, v, label in new.edges()}
    changes: list[EdgeChange] = []
    for key, label in old_edges.items():
        if new_edges.get(key) != label:
            u, v = tuple(key)
            changes.append(EdgeChange.delete(u, v))
    for key, label in new_edges.items():
        if old_edges.get(key) != label:
            u, v = tuple(key)
            changes.append(
                EdgeChange.insert(
                    u,
                    v,
                    label,
                    u_label=new.vertex_label(u),
                    v_label=new.vertex_label(v),
                )
            )
    return GraphChangeOperation(changes)
