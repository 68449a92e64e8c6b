"""Dominance join engines between graph streams and query patterns."""

from .base import (
    BatchDeltas,
    JoinEngine,
    Pair,
    QueryId,
    QuerySet,
    QueryVector,
    StreamId,
    StreamListenerAdapter,
)
from .dominance import (
    dominated_count,
    is_bichromatic_skyline,
    maximal_vectors,
    pair_joinable_bruteforce,
)
from .dominated_set_cover import DominatedSetCoverJoin
from .matrix import MatrixJoin
from .nested_loop import NestedLoopJoin
from .skyline import SkylineEarlyStopJoin

ENGINES = {
    "nl": NestedLoopJoin,
    "dsc": DominatedSetCoverJoin,
    "skyline": SkylineEarlyStopJoin,
    "matrix": MatrixJoin,
}


def make_engine(name: str, query_set: QuerySet) -> JoinEngine:
    """Instantiate a join engine by name (nl/dsc/skyline from the paper,
    plus the vectorized matrix backend)."""
    try:
        engine_cls = ENGINES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; expected one of {sorted(ENGINES)}"
        ) from None
    return engine_cls(query_set)


__all__ = [
    "BatchDeltas",
    "DominatedSetCoverJoin",
    "ENGINES",
    "JoinEngine",
    "MatrixJoin",
    "NestedLoopJoin",
    "Pair",
    "QueryId",
    "QuerySet",
    "QueryVector",
    "SkylineEarlyStopJoin",
    "StreamId",
    "StreamListenerAdapter",
    "dominated_count",
    "is_bichromatic_skyline",
    "make_engine",
    "maximal_vectors",
    "pair_joinable_bruteforce",
]
