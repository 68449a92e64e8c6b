"""Repo-native static analysis (``repro lint``).

A small AST-based analyzer that machine-checks the invariants the
reproduction's correctness argument rests on — an isomorphism-free
filtering path, seeded dataset generation, deterministic result
ordering — instead of trusting every future PR to preserve them by
convention.  See ``docs/static_analysis.md`` for the rule catalog.

Every run parses the analyzed files once into a :class:`ProjectModel`
and runs the registered :class:`Rule` classes over it: ``check`` per
:class:`Module`, ``check_project`` once over the whole model (import
graph, symbols across files).

Public API::

    from repro.analysis import analyze_paths
    findings = analyze_paths(["src", "benchmarks"])
"""

from .engine import analyze_paths, analyze_sources, iter_python_files
from .findings import Finding
from .layering import ALLOWED_IMPORTS, FILTERING_PATH_UNITS, resolve_unit
from .project import Module, ProjectModel
from .rules import REGISTRY, Rule, make_rules, register

__all__ = [
    "ALLOWED_IMPORTS",
    "FILTERING_PATH_UNITS",
    "Finding",
    "Module",
    "ProjectModel",
    "REGISTRY",
    "Rule",
    "analyze_paths",
    "analyze_sources",
    "iter_python_files",
    "make_rules",
    "register",
    "resolve_unit",
]
