"""Chemical reaction monitoring — the paper's second motivating example.

During a reaction the structure of a compound changes over time (bonds
break and form).  This example watches a set of reacting molecules for
the appearance of functional-group patterns (an ether bridge, a
carbonyl-adjacent amine, a three-carbon ring) and also demonstrates the
static filter-and-verify search over a molecule database.

Run with:  python examples/chemical_reactions.py
"""

import random

from repro import LabeledGraph, StreamMonitor
from repro.core.database import GraphDatabase
from repro.datasets import generate_molecule_set
from repro.graph import EdgeChange, GraphChangeOperation, diff_graphs


def functional_groups() -> dict:
    ether = LabeledGraph.from_vertices_and_edges(
        [(0, "C"), (1, "O"), (2, "C")],
        [(0, 1, "1"), (1, 2, "1")],
    )
    amide_core = LabeledGraph.from_vertices_and_edges(
        [(0, "N"), (1, "C"), (2, "O")],
        [(0, 1, "1"), (1, 2, "2")],
    )
    carbon_ring = LabeledGraph.from_vertices_and_edges(
        [(0, "C"), (1, "C"), (2, "C")],
        [(0, 1, "1"), (1, 2, "1"), (2, 0, "1")],
    )
    return {"ether": ether, "amide-core": amide_core, "c3-ring": carbon_ring}


def react(rng: random.Random, molecule: LabeledGraph) -> GraphChangeOperation:
    """One reaction step: a bond may break, another may form."""
    changes = []
    bonds = list(molecule.edges())
    if bonds and rng.random() < 0.5:
        u, v, _ = rng.choice(bonds)
        # Never orphan an atom: only break bonds on atoms with degree > 1.
        if molecule.degree(u) > 1 and molecule.degree(v) > 1:
            changes.append(EdgeChange.delete(u, v))
    atoms = list(molecule.vertices())
    if len(atoms) >= 2:
        u, v = rng.sample(atoms, 2)
        if not molecule.has_edge(u, v):
            changes.append(EdgeChange.insert(u, v, rng.choice(["1", "1", "2"])))
    return GraphChangeOperation(changes)


def main() -> None:
    rng = random.Random(7)
    patterns = functional_groups()

    # --- streaming: follow three reacting molecules --------------------
    print("## streaming reaction monitor")
    molecules = generate_molecule_set(3, mean_size=14, seed=42)
    monitor = StreamMonitor(patterns, method="skyline")
    for index, molecule in enumerate(molecules):
        monitor.add_stream(f"flask-{index}", molecule)

    for step in range(1, 9):
        for index in range(len(molecules)):
            stream_id = f"flask-{index}"
            monitor.apply(stream_id, react(rng, monitor.graph(stream_id)))
        confirmed = monitor.verified_matches()
        summary = {
            stream_id: sorted(p for s, p in confirmed if s == stream_id)
            for stream_id in monitor.stream_ids()
        }
        print(f"step {step}: {summary}")

    # --- static: search a compound library once ------------------------
    print("\n## static library search (filter-and-verify)")
    library = GraphDatabase.from_list(generate_molecule_set(60, seed=9))
    for name, pattern in patterns.items():
        candidates = library.candidates_for(pattern)
        hits = library.search(pattern, verify=True)
        print(
            f"{name}: {len(candidates)} candidates after NPV filtering, "
            f"{len(hits)} exact matches "
            f"({len(candidates) - len(hits)} false positives pruned by VF2)"
        )
        assert hits <= candidates  # Lemma 4.2: never a false negative

    # diff_graphs shows how a reaction step looks as a change operation
    before = monitor.graph("flask-0").copy()
    monitor.apply("flask-0", react(rng, monitor.graph("flask-0")))
    delta = diff_graphs(before, monitor.graph("flask-0"))
    print(f"\nlast reaction step as a change operation: {len(delta)} edge changes")


if __name__ == "__main__":
    main()
