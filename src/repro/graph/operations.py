"""Graph change operations (Definitions 2.4-2.5 of the paper).

A single edge change is the paper's triple ``<op, u, v>`` extended with the
labels needed to materialize it: the edge label, and vertex labels for
endpoints that do not exist yet (vertex insertion is expressed, as in the
paper, by inserting that vertex's edges).

A :class:`GraphChangeOperation` is a batch of edge changes applied at one
timestamp.  Following Section III of the paper, a batch is sequentialized
with **all deletions first, then all insertions**; vertices left isolated
by deletions are dropped (the paper never keeps isolated vertices).

Both types are frozen and slotted (no ``__dict__``): changes are held,
buffered and shipped to workers by the hundred thousand, and every forked
worker maps the heap that holds them.  An :class:`EdgeChange` is one
80 B record that pickles as its constructor arguments.  A batch holds no
``EdgeChange`` at all but a **names table**, a tuple of every distinct
field value of the batch once (vertex ids, labels, ``None``; told apart
by type as well as value, so ``1``, ``True`` and ``1.0`` stay three
names), and **one code string**: the change count (where the op codes
end), the op codes in the original order, then the two refs of every plain deletion (the common
case, no labels), then the five refs of every other change, where a ref
is an index into the table.  A unit of the code string is one byte; a
batch whose table or count passes 256 holds them as a tuple of ints.
The same few ids and labels repeat through a batch, so a held change
costs about a byte per field, plus each distinct value once per batch;
the batch pickles as ``(names, code)``, and a load checks them as
``EdgeChange``'s constructor checks one change.  Iterating a batch
builds its ``EdgeChange`` records on the fly; :func:`check_batch`,
:func:`apply_operation` and the NNT index read it through
``deletion_pairs()`` / ``insertion_rows()`` (a slice of the code string
looked up in the table by one ``itemgetter``), which a single ``EdgeChange``
answers too, so a change is a batch of one wherever a batch is applied.
"""

from __future__ import annotations

import copyreg
from operator import eq, itemgetter
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

    def __len__(self) -> int:
        """The change read as a batch of one."""
        return 1

    def deletion_pairs(self) -> tuple[tuple, ...]:
        """The change read as a batch of one: see
        :meth:`GraphChangeOperation.deletion_pairs`."""
        return ((self.u, self.v),) if self.op == DELETE else ()

    def insertion_rows(self) -> tuple[tuple, ...]:
        """The change read as a batch of one: see
        :meth:`GraphChangeOperation.insertion_rows`."""
        if self.op == DELETE:
            return ()
        return ((self.u, self.v, self.edge_label, self.u_label, self.v_label),)

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


#: Op codes in a batch's code string: a plain deletion (two refs, ``u,
#: v``), a deletion that carries a label and an insertion (five refs,
#: every field).
_CODES = b"dDi"
_PLAIN, _LABELLED, _INSERTION = _CODES


class GraphChangeOperation(_Frozen):
    """A batch of edge changes applied atomically at one timestamp (Def 2.4),
    held as a names table and one code string (see the module docstring)."""

    __slots__ = ("_names", "_code")
    _names: tuple
    _code: bytes | tuple

    def __init__(self, changes: Iterable[EdgeChange] = ()) -> None:
        ops = bytearray()
        pairs: list = []
        others: list = []
        for c in changes:
            if (
                c.op == DELETE
                and c.u_label is None
                and c.v_label is None
                and c.edge_label == DEFAULT_EDGE_LABEL
            ):
                ops.append(_PLAIN)
                pairs += (c.u, c.v)
            else:
                ops.append(_INSERTION if c.op == INSERT else _LABELLED)
                others += (c.u, c.v, c.edge_label, c.u_label, c.v_label)
        fields = pairs + others
        # Keyed by type and value: 1, True and 1.0 are one dict key.
        keys = list(zip(map(type, fields), fields))
        table = {key: ref for ref, key in enumerate(dict.fromkeys(keys))}
        _set(self, "_names", tuple(value for _, value in table))
        units = [len(ops), *ops, *map(table.__getitem__, keys)]
        if max(len(table) - 1, len(ops)) < 256:  # the largest ref or count
            _set(self, "_code", bytes(units))
        else:
            _set(self, "_code", tuple(units))

    def __reduce__(self) -> tuple:
        return (_from_code, (self._names, self._code))

    def _layout(self) -> tuple[bytes | tuple, int, int]:
        """The op codes, and where the pair refs start and end in the code."""
        code = self._code
        start = code[0] + 1
        ops = code[1:start]
        return ops, start, start + 2 * ops.count(_PLAIN)

    def _decode(self, start: int, end: int | None = None) -> Iterator:
        """The names the refs ``code[start:end]`` point at, in order."""
        refs = self._code[start:end]
        return iter(itemgetter(*refs)(self._names) if refs else ())

    def _rows(self) -> Iterator[tuple[int, tuple]]:
        """``(op code, its pair or row)`` of every change, in order."""
        ops, start, end = self._layout()
        pairs, others = self._decode(start, end), self._decode(end)
        pair_rows = zip(pairs, pairs)
        other_rows = zip(others, others, others, others, others)
        for code in ops:
            yield code, next(pair_rows if code == _PLAIN else other_rows)

    def deletion_pairs(self) -> Iterator[tuple]:
        """``(u, v)`` of every deletion, in order, off the code string."""
        ops, start, end = self._layout()
        if _LABELLED not in ops:
            pairs = self._decode(start, end)
            return zip(pairs, pairs)
        return (row[:2] for code, row in self._rows() if code != _INSERTION)

    def insertion_rows(self) -> Iterator[tuple]:
        """``(u, v, edge_label, u_label, v_label)`` of every insertion, in
        order, off the code string."""
        ops, _, end = self._layout()
        if _LABELLED not in ops:
            others = self._decode(end)
            return zip(others, others, others, others, others)
        return (row for code, row in self._rows() if code == _INSERTION)

    def __iter__(self) -> Iterator[EdgeChange]:
        for code, row in self._rows():
            yield EdgeChange(INSERT if code == _INSERTION else DELETE, *row)

    def __len__(self) -> int:
        return self._code[0]

    def __bool__(self) -> bool:
        return self._code[0] != 0

    @property
    def changes(self) -> tuple[EdgeChange, ...]:
        return tuple(self)

    @property
    def deletions(self) -> tuple[EdgeChange, ...]:
        return tuple(
            EdgeChange(DELETE, *row) for code, row in self._rows() if code != _INSERTION
        )

    @property
    def insertions(self) -> tuple[EdgeChange, ...]:
        return tuple(EdgeChange(INSERT, *row) for row in self.insertion_rows())

    def sequentialized(self) -> tuple[EdgeChange, ...]:
        """Deletions first, then insertions (the paper's processing order)."""
        return self.deletions + self.insertions


def _from_code(names: tuple, code: bytes | tuple) -> GraphChangeOperation:
    """Load a pickled batch, refusing a table and code string no list of
    :class:`EdgeChange` records builds: an unknown op code, a ragged code
    string, a ref outside the table, a self loop, or a labelled deletion
    without a label."""
    if type(names) is not tuple or not (
        type(code) is bytes
        or (type(code) is tuple and all(type(unit) is int and unit >= 0 for unit in code))
    ):
        raise ValueError("a batch is a names tuple and a code string")
    if not code:
        raise ValueError("ragged code string: no change count")
    batch = GraphChangeOperation.__new__(GraphChangeOperation)
    _set(batch, "_names", names)
    _set(batch, "_code", code)
    ops, start, end = batch._layout()
    plain, labelled = ops.count(_PLAIN), ops.count(_LABELLED)
    if plain + labelled + ops.count(_INSERTION) != len(ops):
        unknown = next(op for op in ops if op not in (_PLAIN, _LABELLED, _INSERTION))
        raise ValueError(f"op code must be one of {_CODES!r}, got {unknown}")
    if len(ops) != code[0] or len(code) != end + 5 * (len(ops) - plain):
        raise ValueError(
            f"ragged code string: {code[0]} changes, {len(ops)} op codes "
            f"and {len(code) - start} refs"
        )
    if len(code) > start and max(code[start:]) >= len(names):
        raise ValueError(f"a ref points outside the {len(names)}-name table")
    get = names.__getitem__
    pairs, others = code[start:end], code[end:]
    if any(map(eq, map(get, pairs[::2]), map(get, pairs[1::2]))) or any(
        map(eq, map(get, others[::5]), map(get, others[1::5]))
    ):
        raise ValueError("self loops are not supported")
    if labelled and any(
        row[2:] == (DEFAULT_EDGE_LABEL, None, None)
        for code, row in batch._rows()
        if code == _LABELLED
    ):
        raise ValueError("a labelled deletion carries no label")
    return batch


# The loader pickles as a two-byte code from copyreg's private-use range
# (240-255), not as its 34-byte module path: a sharded run ships one
# batch per stream per tick, and a batch is ~23 changes on the sparse
# streams, so the path alone was ~1.5 B per change on the ring.
copyreg.add_extension(__name__, _from_code.__name__, 241)


def apply_change(graph: LabeledGraph, change: EdgeChange) -> None:
    """Apply a single edge change to ``graph`` in place.

    Insertions create missing endpoints (their labels must be supplied on
    the change).  Deletions drop endpoints that become isolated.
    """
    apply_operation(graph, change)


def _apply_insert(
    graph: LabeledGraph,
    u: VertexId,
    v: VertexId,
    edge_label: Label,
    u_label: Label | None,
    v_label: Label | None,
) -> None:
    """Refused inserts (duplicate edge, new endpoint without a label)
    raise before anything is touched."""
    if graph.has_edge(u, v):
        raise GraphError(f"edge ({u!r}, {v!r}) already exists")
    endpoints = ((u, u_label), (v, v_label))
    for vertex, label in endpoints:
        if label is None and not graph.has_vertex(vertex):
            raise _unlabeled(u, v, vertex)
    for vertex, label in endpoints:
        if not graph.has_vertex(vertex):
            graph.add_vertex(vertex, label)
    graph.add_edge(u, v, edge_label)


def _apply_delete(graph: LabeledGraph, u: VertexId, v: VertexId) -> None:
    graph.remove_edge(u, v)
    for vertex in (u, v):
        if graph.has_vertex(vertex) and graph.degree(vertex) == 0:
            graph.remove_vertex(vertex)


def _unlabeled(u: VertexId, v: VertexId, vertex: VertexId) -> GraphError:
    return GraphError(
        f"insertion of edge ({u!r}, {v!r}) creates "
        f"vertex {vertex!r} but no label was provided"
    )


def apply_operation(
    graph: LabeledGraph, operation: GraphChangeOperation | EdgeChange
) -> None:
    """Apply a whole batch (or one change) in place: deletions first, then
    insertions.

    Not atomic: a refused change raises with the ones before it applied.
    Run :func:`check_batch` first where that matters."""
    apply_rows(graph, operation.deletion_pairs(), operation.insertion_rows())


def apply_rows(graph: LabeledGraph, pairs: Iterable[tuple], rows: Iterable[tuple]) -> None:
    """Apply a batch already read off its code string, in place: the
    deletion pairs, then the insertion rows (what :func:`check_batch`
    returns, so a checked batch is decoded once)."""
    for u, v in pairs:
        _apply_delete(graph, u, v)
    for row in rows:
        _apply_insert(graph, *row)


def check_batch(
    graph: LabeledGraph, batch: GraphChangeOperation | EdgeChange
) -> tuple[list[tuple], list[tuple]]:
    """Raise :class:`GraphError` exactly when :func:`apply_operation` (or
    :func:`apply_change`) would on a copy of ``graph``, with the same
    message — without touching ``graph``.

    The one statement of what a batch may not do (Def 2.4, deletions
    first, then insertions): delete an edge that is not there, insert one
    that is, or create an endpoint without a label.  Each change is judged
    against the edge presence and endpoint degrees the changes before it
    leave behind; a vertex whose last edge a deletion takes is gone, as
    :func:`apply_change` drops it.  Every all-or-nothing ``apply`` calls
    this once, then mutates once, from the deletion pairs and insertion
    rows returned here: the batch is decoded once.
    """
    pairs, rows = list(batch.deletion_pairs()), list(batch.insertion_rows())
    deleted: set[frozenset] = set()
    kept: dict[VertexId, int] = {}  # endpoint of a deletion -> degree it keeps
    for u, v in pairs:
        key = frozenset((u, v))
        if key in deleted or not graph.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) does not exist")
        deleted.add(key)
        for vertex in (u, v):
            kept[vertex] = kept.get(vertex, graph.degree(vertex)) - 1
    inserted: set[frozenset] = set()
    linked: set[VertexId] = set()  # endpoints of the insertions so far: present
    for u, v, _, u_label, v_label in rows:
        key = frozenset((u, v))
        if key in inserted or (key not in deleted and graph.has_edge(u, v)):
            raise GraphError(f"edge ({u!r}, {v!r}) already exists")
        for vertex, label in ((u, u_label), (v, v_label)):
            if label is None and vertex not in linked:
                # There unless a deletion above took its last edge.
                if not graph.has_vertex(vertex) or kept.get(vertex) == 0:
                    raise _unlabeled(u, v, vertex)
        inserted.add(key)
        linked.update((u, v))
    return pairs, rows


def apply_batch_validated(
    graph: LabeledGraph, batch: GraphChangeOperation | EdgeChange
) -> None:
    """Apply ``batch`` to ``graph``, all or nothing: :func:`check_batch`,
    then the plain appliers, so a refused batch raises with ``graph``
    untouched."""
    apply_rows(graph, *check_batch(graph, batch))


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
