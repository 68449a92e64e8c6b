"""Work the initial NNT build does per logical tree node.

A guard without a clock: `NNTIndex(graph, l)` bulk-loads the finished
graph (Def 3.1) by walking each root's trails once, with no per-node
object and level `l` booked from neighbour profiles.  A change that
quietly routes the build back through a stored tree, or through the
Figs 4-5 procedures edge by edge, fails here, in tier-1, instead of in
the benchmark's `setup_s`.
"""

import cProfile
import pstats
import random

from repro.datasets.reality import generate_reality_stream
from repro.nnt import NNTIndex

#: Profiled calls (Python and builtin) per logical tree node on a 97-device
#: proximity graph at depth limit 3: 2.75 while the build stored every NNT
#: to depth l - 1 (one `TreeNode` per stored node), 1.30 walking trails.
CALLS_PER_TREE_NODE_CEILING = 2


def test_calls_per_logical_tree_node_of_the_initial_build():
    graph = generate_reality_stream(random.Random(7), 2).initial
    assert graph.num_vertices == 97
    profile = cProfile.Profile()
    index = profile.runcall(NNTIndex, graph, 3)
    assert index.num_tree_nodes > 20_000  # a build worth counting
    calls = pstats.Stats(profile).total_calls
    assert calls / index.num_tree_nodes <= CALLS_PER_TREE_NODE_CEILING
    index.check_integrity()
