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

from typing import Iterable, Iterator, Literal

from .labeled_graph import DEFAULT_EDGE_LABEL, GraphError, Label, LabeledGraph, VertexId

Op = Literal["ins", "del"]

INSERT: Op = "ins"
DELETE: Op = "del"

_set = object.__setattr__


class _Frozen:
    """Equality, hashing, ``repr`` and immutability from the fields a
    subclass's ``__reduce__`` returns (its ``__slots__``, in order)."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__reduce__()[1] == other.__reduce__()[1]

    def __hash__(self) -> int:
        return hash(self.__reduce__()[1])

    def __repr__(self) -> str:
        fields = zip(self.__slots__, self.__reduce__()[1])
        return f"{type(self).__name__}({', '.join(f'{n}={v!r}' for n, v in fields)})"


class EdgeChange(_Frozen):
    """One edge insertion or deletion, ``<op, u, v>`` plus labels.

    ``u_label`` / ``v_label`` are only consulted when the endpoint does not
    exist in the target graph at application time (i.e. vertex insertion).
    """

    __slots__ = ("op", "u", "v", "edge_label", "u_label", "v_label")
    op: Op
    u: VertexId
    v: VertexId
    edge_label: Label
    u_label: Label | None
    v_label: Label | None

    def __init__(
        self,
        op: Op,
        u: VertexId,
        v: VertexId,
        edge_label: Label = DEFAULT_EDGE_LABEL,
        u_label: Label | None = None,
        v_label: Label | None = None,
    ) -> None:
        if op not in (INSERT, DELETE):
            raise ValueError(f"op must be 'ins' or 'del', got {op!r}")
        if u == v:
            raise ValueError("self loops are not supported")
        _set(self, "op", op)
        _set(self, "u", u)
        _set(self, "v", v)
        _set(self, "edge_label", edge_label)
        _set(self, "u_label", u_label)
        _set(self, "v_label", v_label)

    def __reduce__(self) -> tuple:
        # The fields, not slot state: about a third of the dump time of
        # the __getstate__ path, and a load that re-runs the checks.
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


class GraphChangeOperation(_Frozen):
    """A batch of edge changes applied atomically at one timestamp (Def 2.4)."""

    __slots__ = ("changes",)
    changes: tuple[EdgeChange, ...]

    def __init__(self, changes: Iterable[EdgeChange] = ()) -> None:
        _set(self, "changes", tuple(changes))

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
    raise before anything is touched."""
    if graph.has_edge(change.u, change.v):
        raise GraphError(f"edge ({change.u!r}, {change.v!r}) already exists")
    endpoints = ((change.u, change.u_label), (change.v, change.v_label))
    for vertex, label in endpoints:
        if label is None and not graph.has_vertex(vertex):
            raise _unlabeled(change, vertex)
    for vertex, label in endpoints:
        if not graph.has_vertex(vertex):
            graph.add_vertex(vertex, label)
    graph.add_edge(change.u, change.v, change.edge_label)


def _apply_delete(graph: LabeledGraph, change: EdgeChange) -> None:
    graph.remove_edge(change.u, change.v)
    for vertex in (change.u, change.v):
        if graph.has_vertex(vertex) and graph.degree(vertex) == 0:
            graph.remove_vertex(vertex)


def _unlabeled(change: EdgeChange, vertex: VertexId) -> GraphError:
    return GraphError(
        f"insertion of edge ({change.u!r}, {change.v!r}) creates "
        f"vertex {vertex!r} but no label was provided"
    )


def apply_operation(graph: LabeledGraph, operation: GraphChangeOperation) -> None:
    """Apply a whole batch in place: deletions first, then insertions.

    Not atomic: a refused change raises with the ones before it applied.
    Run :func:`check_batch` first where that matters."""
    for change in operation.sequentialized():
        apply_change(graph, change)


def check_batch(graph: LabeledGraph, batch: GraphChangeOperation | EdgeChange) -> None:
    """Raise :class:`GraphError` exactly when :func:`apply_operation` (or
    :func:`apply_change`) would on a copy of ``graph``, with the same
    message — without touching ``graph``.

    The one statement of what a batch may not do (Def 2.4, deletions
    first, then insertions): delete an edge that is not there, insert one
    that is, or create an endpoint without a label.  Each change is judged
    against the edge presence and endpoint degrees the changes before it
    leave behind; a vertex whose last edge a deletion takes is gone, as
    :func:`apply_change` drops it.  Every all-or-nothing ``apply`` calls
    this once, then mutates once.
    """
    if isinstance(batch, EdgeChange):
        deletions, insertions = ((batch,), ()) if batch.op == DELETE else ((), (batch,))
    else:
        deletions, insertions = batch.deletions, batch.insertions
    deleted: set[frozenset] = set()
    kept: dict[VertexId, int] = {}  # endpoint of a deletion -> degree it keeps
    for change in deletions:
        u, v = change.u, change.v
        key = frozenset((u, v))
        if key in deleted or not graph.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) does not exist")
        deleted.add(key)
        for vertex in (u, v):
            kept[vertex] = kept.get(vertex, graph.degree(vertex)) - 1
    inserted: set[frozenset] = set()
    linked: set[VertexId] = set()  # endpoints of the insertions so far: present
    for change in insertions:
        u, v = change.u, change.v
        key = frozenset((u, v))
        if key in inserted or (key not in deleted and graph.has_edge(u, v)):
            raise GraphError(f"edge ({u!r}, {v!r}) already exists")
        for vertex, label in ((u, change.u_label), (v, change.v_label)):
            if label is None and vertex not in linked:
                # There unless a deletion above took its last edge.
                if not graph.has_vertex(vertex) or kept.get(vertex) == 0:
                    raise _unlabeled(change, vertex)
        inserted.add(key)
        linked.update((u, v))


def apply_batch_validated(
    graph: LabeledGraph, batch: GraphChangeOperation | EdgeChange
) -> None:
    """Apply ``batch`` to ``graph``, all or nothing: :func:`check_batch`,
    then the plain appliers, so a refused batch raises with ``graph``
    untouched."""
    check_batch(graph, batch)
    if isinstance(batch, EdgeChange):
        apply_change(graph, batch)
    else:
        apply_operation(graph, batch)


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
