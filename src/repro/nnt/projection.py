"""NNT-to-vector projection (Definitions 4.1-4.2, Figure 6 of the paper).

A *dimension* is ``(depth, parent_label, child_label)`` for a tree edge
whose child sits at ``depth`` — optionally extended with the edge label
(an extension the paper does not use; ablation A2 measures its effect).
The *node projected vector* ``NPV(u)`` counts, per dimension, the tree
edges of ``NNT(u)``; it is stored sparsely as a plain dict.

Soundness (Lemma 4.2): under a subgraph embedding ``f`` of ``Q`` into
``G``, every simple path of ``Q`` from ``u`` maps to a distinct simple
path of ``G`` from ``f(u)`` with identical depth/label profile, hence
``NPV(u)[d] <= NPV(f(u))[d]`` for every dimension ``d``.
"""

from __future__ import annotations

from typing import Hashable, Mapping, NamedTuple

from ..graph.labeled_graph import Label

Dimension = tuple
NPV = dict  # Dimension -> int, sparse (no zero entries stored)


class DimensionScheme(NamedTuple):
    """How tree edges map to projection dimensions.

    ``include_edge_label=False`` reproduces the paper's Definition 4.1;
    ``True`` yields a strictly finer (never less sound) projection at the
    cost of a larger dimension universe.
    """

    include_edge_label: bool = False

    def dimension(
        self,
        depth: int,
        parent_label: Label,
        child_label: Label,
        edge_label: Label,
    ) -> Dimension:
        """The dimension tuple for one tree edge's attributes."""
        if self.include_edge_label:
            return (depth, parent_label, child_label, edge_label)
        return (depth, parent_label, child_label)


PAPER_SCHEME = DimensionScheme(include_edge_label=False)


def add_to_vector(vector: NPV, dim: Dimension, delta: int) -> None:
    """Apply a sparse delta, dropping entries that reach zero."""
    value = vector.get(dim, 0) + delta
    if value < 0:
        raise ValueError(f"NPV entry for {dim!r} would become negative")
    if value == 0:
        vector.pop(dim, None)
    else:
        vector[dim] = value


def dominates(big: Mapping[Hashable, int], small: Mapping[Hashable, int]) -> bool:
    """True iff ``big`` dominates ``small``: big[d] >= small[d] on every
    non-zero dimension of ``small`` (the Lemma 4.2 direction)."""
    if len(big) < len(small):
        # ``small`` has a non-zero dimension that ``big`` lacks.
        return False
    for dim, value in small.items():
        if big.get(dim, 0) < value:
            return False
    return True


def strictly_dominates(big: Mapping[Hashable, int], small: Mapping[Hashable, int]) -> bool:
    """Domination that is not equality (used by skyline computation)."""
    if not dominates(big, small):
        return False
    # Given domination, the vectors are equal iff they have the same
    # number of non-zero entries and agree on every entry of ``big``
    # (sparse invariant: no zero entries are stored) — checked without
    # materializing dict copies, as this sits on the skyline hot path.
    if len(big) != len(small):
        return True
    return any(value != small.get(dim, 0) for dim, value in big.items())


def vector_mass(vector: Mapping[Hashable, int]) -> int:
    """L1 mass of a sparse vector (sum of counts)."""
    return sum(vector.values())
