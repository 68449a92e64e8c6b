"""Def 3.1's tree nodes counted by walking the graph, with no tree built.

A depth-``k`` node of ``NNT(r)`` is a *trail* of length ``k`` from ``r``:
a walk that repeats no edge (it may come back to a vertex, never to an
edge).  The tree edge above the node projects onto ``(k, label(parent),
label(child))`` (Def 4.1), so ``NPV(r)`` counts the trails from ``r`` by
their last step, and :class:`TrailWalk` counts them by walking the graph:

* :meth:`TrailWalk.project` — Def 3.1 over a finished graph: one walk per
  root, to depth ``l - 1``.  Level ``l``, where most of the tree sits, is
  booked from per-vertex *neighbour profiles* (dimension at depth ``l`` ->
  how many neighbours carry it) minus the edges the trail already used.
* :meth:`TrailWalk.through` — Figs 4-5: inserting edge ``(a, b)`` creates
  exactly the trails that cross it and deleting it removes exactly those,
  which are the nodes whose root path crosses the edge.  Each is a trail
  from the edge back to its root followed by a trail onward from the
  edge, so both halves are walked outward from the edge.

The graph must not change while a walk is in use: it caches every
vertex's neighbour rows per depth.  A walk is cheap to make, so it lives
for one projection or one edge change.
"""

from __future__ import annotations

from ..graph.labeled_graph import Label, LabeledGraph, VertexId
from .projection import NPV, Dimension, DimensionScheme, PAPER_SCHEME

#: ``root -> {dimension: count}`` of tree edges, zero counts allowed.
Tallies = dict


def _neighbours_on(trail: tuple) -> tuple:
    """The vertices next to ``trail[-1]`` wherever it occurs along ``trail``:
    the far ends of the edges a step from it may not take again."""
    end = trail[-1]
    last = len(trail) - 1
    used = []
    for position, vertex in enumerate(trail):
        if vertex == end:
            if position:
                used.append(trail[position - 1])
            if position < last:
                used.append(trail[position + 1])
    return tuple(used)


class TrailWalk:
    """Counts the tree edges of one graph's NNTs (Def 3.1) by walking trails.

    ``interned`` maps each dimension to its one canonical tuple and is
    filled as dimensions are met, so equal dimensions are one object.

    A walk books level ``l`` in two halves: each depth-``l - 1`` occurrence
    of a vertex adds one to that vertex's *reach* and takes back the
    edges its trail already used, and :meth:`_settle` adds each reached
    vertex's neighbour profile times its reach once the walk is done.
    """

    def __init__(
        self,
        graph: LabeledGraph,
        depth_limit: int,
        scheme: DimensionScheme,
        interned: dict[Dimension, Dimension],
    ) -> None:
        if depth_limit < 1:
            raise ValueError("depth_limit must be at least 1")
        self.graph = graph
        self.depth_limit = depth_limit
        self.scheme = scheme
        self._paper_dims = not scheme.include_edge_label
        self._interned = interned
        self._rows: dict[tuple[int, VertexId], list[tuple]] = {}
        self._profiles: dict[VertexId, tuple[int, list[tuple[Dimension, int]]]] = {}

    def dimension(self, depth: int, parent_label: Label, label: Label, edge_label: Label) -> Dimension:
        """The interned dimension of a tree edge whose child sits at ``depth``."""
        if self._paper_dims:
            dim = (depth, parent_label, label)
        else:
            dim = self.scheme.dimension(depth, parent_label, label, edge_label)
        return self._interned.setdefault(dim, dim)

    def _step(self, depth: int, vertex: VertexId, other: VertexId) -> Dimension:
        """The dimension of the step ``vertex -> other`` landing at ``depth``."""
        labels = self.graph.labels
        return self.dimension(
            depth, labels[vertex], labels[other], self.graph.edge_label(vertex, other)
        )

    def _row(self, depth: int, vertex: VertexId) -> list[tuple]:
        """Per neighbour ``other`` of ``vertex``: ``(other, dimension of
        the step to it landing at depth, dimension of the step back landing
        at depth l)``; the last is ``None`` unless ``depth == l - 1``."""
        row = self._rows.get((depth, vertex))
        if row is None:
            labels, dimension, limit = self.graph.labels, self.dimension, self.depth_limit
            label = labels[vertex]
            row = self._rows[depth, vertex] = [
                (
                    other,
                    dimension(depth, label, labels[other], edge_label),
                    dimension(limit, labels[other], label, edge_label)
                    if depth + 1 == limit
                    else None,
                )
                for other, edge_label in self.graph.neighbor_items(vertex)
            ]
        return row

    def _profile(self, vertex: VertexId) -> tuple[int, list[tuple[Dimension, int]]]:
        """Level ``l`` under an occurrence of ``vertex`` at depth ``l - 1``
        before its used edges come off: the degree of ``vertex``, and
        ``(dimension, count)`` pairs that sum to it."""
        profile = self._profiles.get(vertex)
        if profile is None:
            labels, limit = self.graph.labels, self.depth_limit
            label = labels[vertex]
            counts: dict[Dimension, int] = {}
            for other, edge_label in self.graph.neighbor_items(vertex):
                dim = self.dimension(limit, label, labels[other], edge_label)
                counts[dim] = counts.get(dim, 0) + 1
            profile = self._profiles[vertex] = (self.graph.degree(vertex), list(counts.items()))
        return profile

    def _settle(self, counts: dict, reach: dict) -> int:
        """Add each reached vertex's profile, times its reach, to
        ``counts``; return how many level-``l`` tree edges that adds
        before the walk's take-backs."""
        profiles = self._profiles
        nodes = 0
        for vertex, times in reach.items():
            degree, pairs = profiles.get(vertex) or self._profile(vertex)
            nodes += times * degree
            for dim, count in pairs:
                counts[dim] = counts.get(dim, 0) + times * count
        return nodes

    def below(self, counts: dict, reach: dict, trail: tuple, used: tuple, depth: int) -> int:
        """Count into ``counts``/``reach`` the last tree edge of every
        trail that extends ``trail`` (whose last vertex sits at ``depth``;
        ``used`` is :func:`_neighbours_on` of it) by up to ``l - depth``
        steps, and return how many trails that is, less what
        :meth:`_settle` will add for ``reach``."""
        vertex = trail[-1]
        depth += 1
        limit = self.depth_limit
        if depth == limit:
            reach[vertex] = reach.get(vertex, 0) + 1
            for other in used:
                dim = self._step(limit, vertex, other)
                counts[dim] = counts.get(dim, 0) - 1
            return -len(used)
        deepest = depth + 1 == limit
        nodes = 0
        for other, dim, back in self._row(depth, vertex):
            if other in used:
                continue
            counts[dim] = counts.get(dim, 0) + 1
            if deepest and other not in trail:
                # ``other`` sits at depth l - 1, and its one used edge is the
                # one back: 1 node, plus its profile less that edge at level l.
                reach[other] = reach.get(other, 0) + 1
                counts[back] = counts.get(back, 0) - 1
            else:
                step = trail + (other,)
                nodes += 1 + self.below(
                    counts,
                    reach,
                    step,
                    (vertex,) if other not in trail else _neighbours_on(step),
                    depth,
                )
        return nodes

    def project(self) -> tuple[dict[VertexId, NPV], int]:
        """Def 3.1 over the whole graph: every vertex's NPV, and how many
        tree nodes (roots included) all the NNTs hold together."""
        npvs: dict[VertexId, NPV] = {}
        nodes = 0
        for vertex in self.graph.labels:
            counts: dict[Dimension, int] = {}
            reach: dict[VertexId, int] = {}
            nodes += 1 + self.below(counts, reach, (vertex,), (), 0)
            nodes += self._settle(counts, reach)
            # A profile entry taken back in full is a zero; NPVs are sparse.
            npvs[vertex] = {dim: count for dim, count in counts.items() if count}
        return npvs, nodes

    def through(self, tallies: Tallies, a: VertexId, b: VertexId, edge_label: Label) -> int:
        """Count into ``tallies`` every tree edge of every trail that
        crosses graph edge ``(a, b)``, from whatever root, and return how
        many trails that is.  Crossing ``x -> y`` as its ``k``-th step, a
        trail is a length-``k - 1`` trail from ``x`` back to its root that
        avoids the edge, then a trail onward from ``y``."""
        labels = self.graph.labels
        limit = self.depth_limit
        reaches: dict[VertexId, dict] = {}
        nodes = 0
        for x, y in ((a, b), (b, a)):
            # ``crossing[k]``: the step x -> y landing at depth k >= 1;
            # ``crossing[0]``: the step back, y -> x, landing at depth l.
            crossing = [self.dimension(limit, labels[y], labels[x], edge_label)] + [
                self.dimension(depth, labels[x], labels[y], edge_label)
                for depth in range(1, limit + 1)
            ]
            nodes += self._climb(tallies, reaches, crossing, (y, x), (y,), 1)
        for root, reach in reaches.items():
            nodes += self._settle(tallies[root], reach)
        return nodes

    def _climb(
        self, tallies: Tallies, reaches: dict, crossing: list, back: tuple, used: tuple, depth: int
    ) -> int:
        """``back`` is ``(y, x, ..., root)``: read backwards, the root's
        trail of length ``depth`` whose last step crosses ``x -> y``;
        ``used`` is :func:`_neighbours_on` of it.  Book that step and every
        extension of it, then the same for each root one step further out."""
        root = back[-1]
        counts = tallies.get(root)
        if counts is None:
            counts = tallies[root] = {}
        dim = crossing[depth]
        counts[dim] = counts.get(dim, 0) + 1
        limit = self.depth_limit
        if depth == limit:
            return 1
        reach = reaches.get(root)
        if reach is None:
            reach = reaches[root] = {}
        y = back[0]
        if back.count(y) > 1:
            trail = back[::-1]
            nodes = 1 + self.below(counts, reach, trail, _neighbours_on(trail), depth)
        elif depth + 1 < limit:
            nodes = 1 + self.below(counts, reach, back[::-1], (back[1],), depth)
        else:
            # ``y`` sits at depth l - 1 and its one used edge is the crossing.
            reach[y] = reach.get(y, 0) + 1
            counts[crossing[0]] = counts.get(crossing[0], 0) - 1
            nodes = 0
        depth += 1
        if depth == limit:
            # One step further out the crossing is the last step: book it here.
            dim = crossing[depth]
            for other in self.graph.neighbors(root):
                if other not in used:
                    counts = tallies.get(other)
                    if counts is None:
                        counts = tallies[other] = {}
                    counts[dim] = counts.get(dim, 0) + 1
                    nodes += 1
            return nodes
        for other in self.graph.neighbors(root):
            if other not in used:
                step = back + (other,)
                nodes += self._climb(
                    tallies,
                    reaches,
                    crossing,
                    step,
                    (root,) if other not in back else _neighbours_on(step),
                    depth,
                )
        return nodes


def project_graph(
    graph: LabeledGraph,
    depth_limit: int,
    scheme: DimensionScheme = PAPER_SCHEME,
) -> dict[VertexId, NPV]:
    """One-shot NPVs for every vertex: the trail count of an index's bulk
    load (:meth:`TrailWalk.project`), no index kept."""
    return TrailWalk(graph, depth_limit, scheme, {}).project()[0]
