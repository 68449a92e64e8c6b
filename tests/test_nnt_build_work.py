"""Work the initial NNT build does per node it stores (ISSUE 24).

A guard without a clock: `NNTIndex(graph, l)` bulk-loads the finished
graph (Def 3.1), creating each stored node once; replaying the graph edge
by edge through the Figs 4-5 splice path reaches the same state at about
three times the calls.  A change that quietly routes the build back that
way fails here, in tier-1, instead of in the benchmark's `setup_s`.
"""

import cProfile
import pstats
import random

from repro.datasets.reality import generate_reality_stream
from repro.nnt import NNTIndex

#: Profiled calls (Python and builtin) per stored node on a 97-device
#: proximity graph at depth limit 3: 48.8 edge by edge (one deque per
#: splice, a neighbour walk and `edge_on_root_path` per deepest node, one
#: `_book` -> `add_to_vector` per tree edge), 24.8 in the issue's sizing
#: prototype, 16.9 as merged (rows of plain data per depth and vertex, the
#: implied level booked from the neighbour profile).
CALLS_PER_STORED_NODE_CEILING = 32


def test_calls_per_stored_node_of_the_initial_build():
    graph = generate_reality_stream(random.Random(7), 2).initial
    assert graph.num_vertices == 97
    profile = cProfile.Profile()
    index = profile.runcall(NNTIndex, graph, 3)
    stored = sum(map(len, index.node_index.values()))
    assert stored > 4_000  # a build worth counting
    calls = pstats.Stats(profile).total_calls
    assert calls / stored <= CALLS_PER_STORED_NODE_CEILING
    index.check_integrity()
