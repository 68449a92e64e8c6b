"""Node-Neighbor Trees: construction, incremental maintenance, projection."""

from .builder import build_all_nnts, build_nnt, enumerate_simple_paths, project_graph
from .branches import BranchFilter, branch_compatible, branch_profile
from .incremental import NNTIndex, NPVListener, index_graphs
from .projection import (
    PAPER_SCHEME,
    Dimension,
    DimensionScheme,
    NPV,
    add_to_vector,
    dominates,
    project_tree,
    strictly_dominates,
    vector_mass,
)
from .tree import NNT, TreeNode

__all__ = [
    "BranchFilter",
    "Dimension",
    "DimensionScheme",
    "NNT",
    "NNTIndex",
    "NPV",
    "NPVListener",
    "PAPER_SCHEME",
    "TreeNode",
    "add_to_vector",
    "branch_compatible",
    "branch_profile",
    "build_all_nnts",
    "build_nnt",
    "dominates",
    "enumerate_simple_paths",
    "index_graphs",
    "project_graph",
    "project_tree",
    "strictly_dominates",
    "vector_mass",
]
