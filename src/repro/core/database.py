"""Static graph-database search with the NPV filter (the paper's static
experiments, Section V-A).

:class:`GraphDatabase` projects every data graph once and answers
subgraph queries with the filter-and-verify strategy: Lemma 4.2
dominance filtering first, optional exact verification second.
"""

from __future__ import annotations

from typing import Hashable, Mapping

from ..graph.labeled_graph import LabeledGraph
from ..isomorphism.vf2 import SubgraphMatcher
from ..join.dominance import pair_joinable_bruteforce
from ..nnt.trails import project_graph
from ..nnt.projection import DimensionScheme, PAPER_SCHEME

GraphId = Hashable


class GraphDatabase:
    """A static collection of labeled graphs indexed by their NPVs."""

    def __init__(
        self,
        graphs: Mapping[GraphId, LabeledGraph],
        depth_limit: int = 3,
        scheme: DimensionScheme = PAPER_SCHEME,
    ) -> None:
        self.depth_limit = depth_limit
        self.scheme = scheme
        self.graphs: dict[GraphId, LabeledGraph] = dict(graphs)
        self._vectors = {
            graph_id: list(project_graph(graph, depth_limit, scheme).values())
            for graph_id, graph in self.graphs.items()
        }

    @classmethod
    def from_list(
        cls,
        graphs: list[LabeledGraph],
        depth_limit: int = 3,
        scheme: DimensionScheme = PAPER_SCHEME,
    ) -> "GraphDatabase":
        """Index a list of graphs under integer ids 0..n-1."""
        return cls(dict(enumerate(graphs)), depth_limit, scheme)

    def __len__(self) -> int:
        return len(self.graphs)

    def candidates_for(self, query: LabeledGraph) -> set[GraphId]:
        """Data graphs passing the Lemma 4.2 dominance filter: every query
        vector dominated by some data-graph vector.  Sound: a superset of
        the exact answer set."""
        query_vectors = list(project_graph(query, self.depth_limit, self.scheme).values())
        return {
            graph_id
            for graph_id, stream_vectors in self._vectors.items()
            if pair_joinable_bruteforce(query_vectors, stream_vectors)
        }

    def search(self, query: LabeledGraph, verify: bool = True) -> set[GraphId]:
        """Subgraph search: the filtered candidates, exact if ``verify``."""
        candidates = self.candidates_for(query)
        if not verify:
            return candidates
        return {
            graph_id
            for graph_id in candidates
            if SubgraphMatcher(self.graphs[graph_id]).is_subgraph(query)
        }
