"""Wire protocol of the serving layer: newline-delimited commands in,
one JSON object out per command.

Two front-ends share this module:

* the **text** protocol — the historical whitespace line format of
  ``repro serve`` on stdin (``ins a 1 2 - X Y``, ``tick`` ...), parsed
  by :func:`parse_text_line`;
* the **JSON** protocol — what TCP clients speak, parsed by
  :func:`parse_json_line` (``{"cmd": "ins", "stream": "a", ...}``).

Both produce the same small command records, so the session
executor (:mod:`repro.serve.session`) is front-end agnostic.  Malformed
input raises :class:`ProtocolError`, which callers turn into a
structured ``{"ok": false, "error": ...}`` reply — a bad line must
never surface as a raw ``IndexError`` traceback.

The text format reads ids as strings (matching :mod:`repro.graph.io`,
whose files yield string vertex ids); the JSON format preserves native
JSON types, so integer vertex ids and timestamps round-trip typed.
:func:`event_to_dict` is the one sanctioned event serializer — it keeps
``stream``/``query`` ids typed instead of funnelling them through a
``json.dumps(default=str)`` catch-all.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, NamedTuple, Sequence, Union

from ..graph.io import is_token
from ..graph.operations import DELETE, INSERT, EdgeChange

__all__ = [
    "ProtocolError",
    "Command",
    "AddStream",
    "AddQuery",
    "DelQuery",
    "Edit",
    "BatchEdit",
    "Commit",
    "Poll",
    "Matches",
    "Stats",
    "Checkpoint",
    "Quit",
    "parse_text_line",
    "parse_json_line",
    "change_to_dict",
    "change_from_dict",
    "event_to_dict",
    "to_jsonable",
    "encode_reply",
]


class ProtocolError(ValueError):
    """A syntactically or semantically malformed protocol line."""


# Each command's ``verb`` is the verb as the client spelled it (``tick``
# vs ``commit``); replies echo it back so clients can correlate without
# tracking aliases.  ``is_data``: does the command feed data into the
# monitor (and therefore go through admission control), as opposed to
# reading state?


class AddStream(NamedTuple):
    stream_id: Any
    graph_file: str | None = None
    graph_key: str | None = None
    verb: str = ""

    @property
    def is_data(self) -> bool:
        return True


class AddQuery(NamedTuple):
    """Register a standing query live (verb ``addq``).

    The pattern comes from a graph-set file on the server
    (``graph_file`` + optional ``graph_key``) or inline as
    ``vertices``/``edges`` tuples (JSON protocol only).  Semantic
    problems — unreadable file, missing key, malformed pattern,
    duplicate id — are *poison queries*: the executor refuses them
    instead of crashing the session.
    """

    query_id: Any
    graph_file: str | None = None
    graph_key: str | None = None
    vertices: tuple = ()
    edges: tuple = ()
    verb: str = ""

    @property
    def is_data(self) -> bool:
        return True


class DelQuery(NamedTuple):
    """Deregister a standing query live (verb ``delq``)."""

    query_id: Any
    verb: str = ""

    @property
    def is_data(self) -> bool:
        return True


class Edit(NamedTuple):
    """Stage one edge change on a session (applied at the next commit)."""

    stream_id: Any
    change: EdgeChange
    verb: str = ""

    @property
    def is_data(self) -> bool:
        return True


class BatchEdit(NamedTuple):
    """Stage a whole batch of changes in one command (JSON protocol only)."""

    stream_id: Any
    changes: tuple[EdgeChange, ...]
    verb: str = ""

    @property
    def is_data(self) -> bool:
        return True


class Commit(NamedTuple):
    """Apply every staged batch at the next timestamp (text verb: ``tick``)."""

    verb: str = ""

    @property
    def is_data(self) -> bool:
        return True


class Poll(NamedTuple):
    verb: str = ""

    @property
    def is_data(self) -> bool:
        return False


class Matches(NamedTuple):
    verb: str = ""

    @property
    def is_data(self) -> bool:
        return False


class Stats(NamedTuple):
    verb: str = ""

    @property
    def is_data(self) -> bool:
        return False


class Checkpoint(NamedTuple):
    verb: str = ""

    @property
    def is_data(self) -> bool:
        return False


class Quit(NamedTuple):
    verb: str = ""

    @property
    def is_data(self) -> bool:
        return False


#: Any parsed protocol command.
Command = Union[
    AddStream, AddQuery, DelQuery, Edit, BatchEdit, Commit, Poll, Matches, Stats, Checkpoint, Quit
]


_TEXT_VERBS = frozenset(
    {
        "stream",
        "addq",
        "delq",
        "ins",
        "del",
        "tick",
        "commit",
        "poll",
        "events",
        "matches",
        "stats",
        "checkpoint",
        "quit",
    }
)


def _parse_edit(verb: str, rest: Sequence[str]) -> Edit:
    if len(rest) < 3:
        raise ProtocolError(
            f"{verb!r} needs at least <stream> <u> <v> (got {len(rest)} args)"
        )
    stream_id, u, v = rest[0], rest[1], rest[2]
    if verb == "ins":
        if len(rest) > 6:
            raise ProtocolError(
                "'ins' takes at most <stream> <u> <v> [elabel [ulabel vlabel]]"
            )
        edge_label = rest[3] if len(rest) > 3 else "-"
        u_label = rest[4] if len(rest) > 4 else None
        v_label = rest[5] if len(rest) > 5 else None
        try:
            change = EdgeChange.insert(u, v, edge_label, u_label, v_label)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc
    else:
        if len(rest) > 3:
            raise ProtocolError("'del' takes exactly <stream> <u> <v>")
        try:
            change = EdgeChange.delete(u, v)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc
    return Edit(stream_id, change, verb=verb)


def parse_text_line(line: str) -> Command | None:
    """Parse one line of the text protocol.

    Returns ``None`` for blank lines and ``#`` comments.  Raises
    :class:`ProtocolError` for unknown verbs and malformed argument
    lists (the historical code let those escape as ``IndexError``).
    """
    words = line.split()
    if not words or words[0].startswith("#"):
        return None
    verb, rest = words[0], words[1:]
    if verb not in _TEXT_VERBS:
        raise ProtocolError(f"unknown command {verb!r}")
    if verb == "stream":
        if not rest:
            raise ProtocolError("'stream' needs <id> [graphset-file [key]]")
        if len(rest) > 3:
            raise ProtocolError("'stream' takes at most <id> <graphset-file> <key>")
        return AddStream(
            rest[0],
            rest[1] if len(rest) > 1 else None,
            rest[2] if len(rest) > 2 else None,
            verb=verb,
        )
    if verb == "addq":
        if not rest or len(rest) < 2:
            raise ProtocolError("'addq' needs <id> <graphset-file> [key]")
        if len(rest) > 3:
            raise ProtocolError("'addq' takes at most <id> <graphset-file> <key>")
        return AddQuery(
            rest[0],
            rest[1],
            rest[2] if len(rest) > 2 else None,
            verb=verb,
        )
    if verb == "delq":
        if len(rest) != 1:
            raise ProtocolError("'delq' takes exactly <id>")
        return DelQuery(rest[0], verb=verb)
    if verb in ("ins", "del"):
        return _parse_edit(verb, rest)
    if rest:
        raise ProtocolError(f"{verb!r} takes no arguments")
    if verb in ("tick", "commit"):
        return Commit(verb=verb)
    if verb in ("poll", "events"):
        return Poll(verb=verb)
    simple = {
        "matches": Matches,
        "stats": Stats,
        "checkpoint": Checkpoint,
        "quit": Quit,
    }
    return simple[verb](verb=verb)


def change_to_dict(change: EdgeChange) -> dict[str, Any]:
    """Loss-free JSON shape of one edge change."""
    doc: dict[str, Any] = {"op": change.op, "u": change.u, "v": change.v}
    if change.op == INSERT:
        doc["edge_label"] = change.edge_label
        if change.u_label is not None:
            doc["u_label"] = change.u_label
        if change.v_label is not None:
            doc["v_label"] = change.v_label
    return doc


def _id(doc: Mapping[str, Any], key: str, what: str) -> str | int:
    """``doc[key]`` as a stream/query/vertex id: a JSON string or integer.
    Anything else (a list cannot even be hashed) would only fail later,
    inside the monitor, where it is no longer the client's bad line."""
    if key not in doc:
        raise ProtocolError(f"{what} needs a {key!r} field")
    return _typed_id(doc[key], key)


def _typed_id(value: Any, key: str) -> str | int:
    if not isinstance(value, (str, int)) or isinstance(value, bool):
        raise ProtocolError(f"{key!r} must be a string or an integer, got {value!r}")
    return value


def _label(value: Any, key: str, nullable: bool = False) -> str | None:
    if isinstance(value, str) or (nullable and value is None):
        return value
    raise ProtocolError(f"{key!r} must be a string, got {value!r}")


def _token(value: Any, key: str) -> Any:
    """A string vertex id or label must be one token of the graph files a
    checkpoint writes (non-empty, no whitespace): the monitor would apply
    anything else, and every later checkpoint would then fail on it."""
    if isinstance(value, str) and not is_token(value):
        raise ProtocolError(f"{key!r} must be non-empty and without whitespace, got {value!r}")
    return value


def _writable(change: EdgeChange) -> EdgeChange:
    """``change``, once its ids and labels have passed :func:`_token`."""
    for key in ("u", "v", "edge_label", "u_label", "v_label"):
        _token(getattr(change, key), key)
    return change


def _inline(doc: Mapping[str, Any], key: str) -> tuple:
    """An ``addq``'s inline ``vertices`` (``[id, label]`` items) or
    ``edges`` (``[u, v, label]`` items), typed like a change's fields.
    Content problems (an undeclared endpoint, a repeated vertex) are left
    to the executor, which refuses them as poison queries."""
    items = doc.get(key, [])
    arity = 2 if key == "vertices" else 3
    if not isinstance(items, list):
        raise ProtocolError(f"'addq' inline {key!r} must be a list")
    parsed = []
    for item in items:
        if not isinstance(item, list) or len(item) != arity:
            shape = "[id, label]" if arity == 2 else "[u, v, label]"
            raise ProtocolError(f"{key!r} items must be {shape}, got {item!r}")
        *ids, label = item
        fields = (*(_typed_id(i, key) for i in ids), _label(label, key))
        parsed.append(tuple(_token(field, key) for field in fields))
    return tuple(parsed)


def change_from_dict(doc: Mapping[str, Any]) -> EdgeChange:
    """Parse one wire change object back into an :class:`EdgeChange`.
    Ids are strings or integers, labels strings (``u_label``/``v_label``
    may be ``null``)."""
    if not isinstance(doc, Mapping):
        raise ProtocolError(f"change must be an object, got {type(doc).__name__}")
    op = doc.get("op")
    if op not in (INSERT, DELETE):
        raise ProtocolError(f"change op must be 'ins' or 'del', got {op!r}")
    u, v = _id(doc, "u", "change"), _id(doc, "v", "change")
    try:
        if op == INSERT:
            return EdgeChange.insert(
                u,
                v,
                _label(doc.get("edge_label", "-"), "edge_label"),
                _label(doc.get("u_label"), "u_label", nullable=True),
                _label(doc.get("v_label"), "v_label", nullable=True),
            )
        return EdgeChange.delete(u, v)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc


def parse_json_line(line: str) -> Command | None:
    """Parse one line of the JSON protocol (``None`` for blank lines)."""
    if not line.strip():
        return None
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProtocolError("command must be a JSON object")
    verb = doc.get("cmd")
    if not isinstance(verb, str):
        raise ProtocolError("command object needs a string 'cmd' field")
    if verb in ("stream", "addq"):
        # Names of a file the server opens: an integer would name a file
        # descriptor of the server's own.
        graph_file = _label(doc.get("graph_file"), "graph_file", nullable=True)
        graph_key = _label(doc.get("graph_key"), "graph_key", nullable=True)
    if verb == "stream":
        return AddStream(_id(doc, "stream", repr(verb)), graph_file, graph_key, verb=verb)
    if verb == "addq":
        query_id = _id(doc, "query", repr(verb))
        vertices, edges = _inline(doc, "vertices"), _inline(doc, "edges")
        if not (graph_file or vertices or edges):
            raise ProtocolError(
                "'addq' needs a 'graph_file' or inline 'vertices'/'edges'"
            )
        return AddQuery(query_id, graph_file, graph_key, vertices, edges, verb=verb)
    if verb == "delq":
        return DelQuery(_id(doc, "query", repr(verb)), verb=verb)
    if verb in ("ins", "del"):
        change_doc = dict(doc)
        change_doc["op"] = verb
        return Edit(
            _id(doc, "stream", repr(verb)), _writable(change_from_dict(change_doc)), verb=verb
        )
    if verb == "batch":
        changes = doc.get("changes")
        if not isinstance(changes, list):
            raise ProtocolError("'batch' needs a 'changes' list")
        return BatchEdit(
            _id(doc, "stream", repr(verb)),
            tuple(_writable(change_from_dict(c)) for c in changes),
            verb=verb,
        )
    if verb in ("tick", "commit"):
        return Commit(verb=verb)
    if verb in ("poll", "events"):
        return Poll(verb=verb)
    simple = {
        "matches": Matches,
        "stats": Stats,
        "checkpoint": Checkpoint,
        "quit": Quit,
    }
    if verb in simple:
        return simple[verb](verb=verb)
    raise ProtocolError(f"unknown command {verb!r}")


def event_to_dict(event: Any, timestamp: int) -> dict[str, Any]:
    """Typed JSON shape of a :class:`~repro.core.monitor.MatchEvent`.

    Ids that are JSON-representable (str/int/float/bool) pass through
    unchanged so integer vertex/stream ids round-trip typed; anything
    exotic falls back to ``str`` explicitly rather than via a
    serializer-wide ``default=str``.
    """

    def _typed(value: Any) -> Any:
        if isinstance(value, (str, int, float, bool)) or value is None:
            return value
        return str(value)

    return {
        "kind": event.kind,
        "stream": _typed(event.stream_id),
        "query": _typed(event.query_id),
        "t": timestamp,
    }


def to_jsonable(value: Any) -> Any:
    """Recursively coerce a reply value to JSON-native types.

    JSON-native scalars pass through untouched (so int ids and
    timestamps stay typed — the old ``json.dumps(..., default=str)``
    catch-all stringified them wholesale); mappings and sequences are
    rebuilt; only genuinely exotic leaves (e.g. ``Path`` objects inside
    checkpoint notes) fall back to ``str``.
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, Mapping):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=str) if isinstance(value, (set, frozenset)) else value
        return [to_jsonable(v) for v in items]
    return str(value)


def encode_reply(reply: Mapping[str, Any]) -> str:
    """One reply object as a compact JSON line (no trailing newline).

    Events must already be serialized via :func:`event_to_dict` (the
    explicit typed path); :func:`to_jsonable` only guards the long tail
    of stats/checkpoint blobs."""
    return json.dumps(to_jsonable(reply), sort_keys=True)
