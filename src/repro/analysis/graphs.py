"""The import graph backing the model every lint run builds.

:class:`ImportGraph` holds the module-level import edges between the
analyzed modules (``repro.runtime.coordinator -> repro.obs``), derived
once per :class:`~repro.analysis.project.ProjectModel`.  ``typing_only``
marks imports that do not execute at module init (inside an
``if TYPE_CHECKING:`` block or a function body): they are excluded from
cycle detection but still checked against the layering matrix.
Strongly connected components come from an iterative Tarjan, so cycle
reporting is deterministic and recursion-limit-proof.

Stdlib-only, like the rest of ``repro.analysis``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True)
class ImportEdge:
    """One import statement, as a graph edge.

    ``source`` is the canonical name of the importing module;
    ``target`` the absolute dotted name it imports (which may or may
    not be part of the analyzed tree).  ``lineno``/``column`` anchor
    findings at the statement.
    """

    source: str
    target: str
    lineno: int
    column: int
    typing_only: bool = False


class ImportGraph:
    """Module import edges restricted to (and queryable over) the
    analyzed module set."""

    def __init__(self, nodes: Iterable[str]) -> None:
        self.nodes: set[str] = set(nodes)
        # Runtime (non-typing) adjacency over known nodes only.
        self._adjacency: dict[str, set[str]] = {node: set() for node in self.nodes}
        # Every edge (typing or not, known target or not), keyed by source.
        self._by_source: dict[str, list[ImportEdge]] = {
            node: [] for node in self.nodes
        }

    def add_edge(self, edge: ImportEdge) -> None:
        """Record one import statement (of a module in ``nodes``)."""
        self._by_source[edge.source].append(edge)
        if not edge.typing_only and edge.target in self.nodes:
            self._adjacency[edge.source].add(edge.target)

    def edges_from(self, node: str) -> list[ImportEdge]:
        """Every recorded import edge leaving ``node``."""
        return list(self._by_source.get(node, []))

    def edge_between(self, source: str, target: str) -> ImportEdge | None:
        """The first recorded edge ``source -> target`` (for anchoring
        findings at the actual import statement)."""
        for edge in self._by_source.get(source, []):
            if edge.target == target:
                return edge
        return None

    # ------------------------------------------------------------------
    def strongly_connected_components(self) -> list[list[str]]:
        """Tarjan's SCCs over the runtime adjacency (iterative).

        Components are returned with their members sorted, and the
        component list itself sorted by first member, so reports are
        deterministic.
        """
        index_of: dict[str, int] = {}
        lowlink: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        components: list[list[str]] = []
        counter = 0

        for root in sorted(self.nodes):
            if root in index_of:
                continue
            # Each work item: (node, iterator over successors).
            work: list[tuple[str, Iterator[str]]] = [
                (root, iter(sorted(self._adjacency.get(root, set()))))
            ]
            index_of[root] = lowlink[root] = counter
            counter += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, successors = work[-1]
                advanced = False
                for succ in successors:
                    if succ not in index_of:
                        index_of[succ] = lowlink[succ] = counter
                        counter += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append(
                            (succ, iter(sorted(self._adjacency.get(succ, set()))))
                        )
                        advanced = True
                        break
                    if succ in on_stack:
                        lowlink[node] = min(lowlink[node], index_of[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index_of[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(sorted(component))
        return sorted(components)

    def cycles(self) -> list[list[str]]:
        """Import cycles: SCCs of size > 1, plus self-importing modules."""
        found = [c for c in self.strongly_connected_components() if len(c) > 1]
        for node in sorted(self.nodes):
            if node in self._adjacency.get(node, set()):
                found.append([node])
        return found

    def shortest_path(self, source: str, targets: set[str]) -> list[str] | None:
        """BFS path from ``source`` to any node in ``targets`` over the
        runtime adjacency, or None.  Deterministic (sorted expansion)."""
        if source in targets:
            return [source]
        parent: dict[str, str] = {source: source}
        frontier = deque([source])
        while frontier:
            node = frontier.popleft()
            for succ in sorted(self._adjacency.get(node, set())):
                if succ in parent:
                    continue
                parent[succ] = node
                if succ in targets:
                    path = [succ]
                    while path[-1] != source:
                        path.append(parent[path[-1]])
                    return list(reversed(path))
                frontier.append(succ)
        return None
