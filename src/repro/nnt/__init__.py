"""Node-Neighbor Trees counted as trails: incremental maintenance, projection.

The Def 3.1 reference and Lemma 4.1's filter are in :mod:`repro.nnt.branches`."""

from .incremental import NNTIndex, NPVListener
from .projection import (
    PAPER_SCHEME,
    Dimension,
    DimensionScheme,
    NPV,
    add_to_vector,
    dominates,
    strictly_dominates,
    vector_mass,
)
from .trails import project_graph

__all__ = [
    "Dimension",
    "DimensionScheme",
    "NNTIndex",
    "NPV",
    "NPVListener",
    "PAPER_SCHEME",
    "add_to_vector",
    "dominates",
    "project_graph",
    "strictly_dominates",
    "vector_mass",
]
