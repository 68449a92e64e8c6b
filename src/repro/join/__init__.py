"""Dominance join engines between graph streams and query patterns."""

from collections.abc import Mapping
from typing import Iterator

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
from .nested_loop import NestedLoopJoin
from .skyline import SkylineEarlyStopJoin


class _EngineTable(Mapping[str, type[JoinEngine]]):
    """Engine name -> class.  ``matrix`` is the one numpy importer on the
    filtering path (about half of ``import repro``'s time, ~16 MB in every
    process), so its module is imported when the name is looked up, not
    with the package; listing the names imports nothing."""

    _eager: dict[str, type[JoinEngine]] = {
        "nl": NestedLoopJoin,
        "dsc": DominatedSetCoverJoin,
        "skyline": SkylineEarlyStopJoin,
    }

    def __getitem__(self, name: str) -> type[JoinEngine]:
        if name == "matrix":
            from .matrix import MatrixJoin

            return MatrixJoin
        return self._eager[name]

    def __iter__(self) -> Iterator[str]:
        yield from self._eager
        yield "matrix"

    def __len__(self) -> int:
        return len(self._eager) + 1


ENGINES = _EngineTable()


def __getattr__(name: str) -> type[JoinEngine]:
    """``repro.join.MatrixJoin``, resolved on first use (PEP 562)."""
    if name == "MatrixJoin":
        return ENGINES["matrix"]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def check_engine_name(name: str) -> str:
    """The key of ``name`` in :data:`ENGINES`; ``ValueError`` for an unknown
    name.  Imports nothing (``in ENGINES`` would look ``matrix`` up)."""
    key = name.lower()
    if key not in tuple(ENGINES):
        raise ValueError(
            f"unknown engine {name!r}; expected one of {sorted(ENGINES)}"
        )
    return key


def make_engine(name: str, query_set: QuerySet) -> JoinEngine:
    """Instantiate a join engine by name (nl/dsc/skyline from the paper,
    plus the vectorized matrix backend)."""
    return ENGINES[check_engine_name(name)](query_set)


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
    "check_engine_name",
    "dominated_count",
    "is_bichromatic_skyline",
    "make_engine",
    "maximal_vectors",
    "pair_joinable_bruteforce",
]
