"""Independent truth for the correctness gate.

Truth is computed with ``networkx``'s VF2 ``subgraph_is_monomorphic`` on
mirror graphs replayed from the script — none of the program's
filtering or isomorphism code is involved (the idiom of
``tests/fixtures/scenarios/generate.py``).  The filter is complete
(Lemma 4.2), so the gate is ``truth ⊆ reported`` at every sampled tick.
"""

from __future__ import annotations

import networkx as nx
from networkx.algorithms import isomorphism as nxiso

from repro.graph import LabeledGraph, apply_operation

from .loadgen import Script

ORACLE_TICKS = 20


def to_networkx(graph: LabeledGraph) -> "nx.Graph":
    out = nx.Graph()
    for vertex, label in graph.vertex_items():
        out.add_node(vertex, label=label)
    for u, v, label in graph.edges():
        out.add_edge(u, v, label=label)
    return out


def _same_label(a: dict, b: dict) -> bool:
    return a["label"] == b["label"]


def contains(target: "nx.Graph", query: "nx.Graph") -> bool:
    matcher = nxiso.GraphMatcher(
        target, query, node_match=_same_label, edge_match=_same_label
    )
    return matcher.subgraph_is_monomorphic()


def sample_ticks(reached: int, count: int = ORACLE_TICKS) -> list[int]:
    """``count`` evenly spaced tick indices in ``[0, reached)``, always
    including the last answered tick."""
    if reached <= count:
        return list(range(reached))
    return sorted({round(i * (reached - 1) / (count - 1)) for i in range(count)})


def check(
    script: Script, answers: dict[int, frozenset], full: bool
) -> dict[str, float]:
    """Compare reported answers with truth at the sampled ticks.

    ``answers`` maps tick index to the reported ``(stream, query)`` set.
    Pairs the filter rejected are always verified (a true pair among
    them is a false negative).  With ``full`` the reported pairs are
    verified too, which prices the false-positive ratio; without it
    they are taken on trust — ``truth ⊆ reported`` cannot fail on them.
    """
    mirrors = {sid: graph.copy() for sid, graph in script.initial.items()}
    query_graphs: dict[int, "nx.Graph"] = {}
    wanted = sorted(answers)
    missed = true_pairs = reported_true = reported_checked = 0
    position = 0
    for index in wanted:
        while position <= index:
            for stream_id, batch in script.ticks[position].batches:
                apply_operation(mirrors[stream_id], batch)
            position += 1
        live = script.live_queries_at(index)
        reported = answers[index]
        for stream_id, mirror in mirrors.items():
            target = to_networkx(mirror)
            for query_id, query in live.items():
                is_reported = (stream_id, query_id) in reported
                if is_reported and not full:
                    continue
                pattern = query_graphs.setdefault(id(query), to_networkx(query))
                holds = contains(target, pattern)
                if is_reported:
                    reported_checked += 1
                    reported_true += holds
                elif holds:
                    missed += 1
                true_pairs += holds
    recall = 1.0 if not missed else 1.0 - missed / max(true_pairs, 1)
    fp_ratio = (
        (reported_checked - reported_true) / reported_checked if reported_checked else 0.0
    )
    return {"recall": recall, "fp_ratio": fp_ratio, "missed": missed}
