"""Rule framework: the one rule base class and the one registry.

A *rule* yields :class:`~repro.analysis.findings.Finding` objects from
either or both of two hooks: :meth:`Rule.check` sees one parsed
:class:`~repro.analysis.project.Module` at a time, on the modules the
rule's scope covers; :meth:`Rule.check_project` sees the whole
:class:`~repro.analysis.project.ProjectModel` once per run (import
graph, symbols across files).  The scope is declared in *units*
(top-level packages, see :mod:`repro.analysis.layering`), so e.g. the
unseeded-RNG rule only fires inside ``repro.datasets`` /
``repro.experiments`` while the mutable-default rule runs everywhere.

Rules register themselves via :func:`register`; every run instantiates
every registered rule unless the caller selects a subset.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .findings import Finding

if TYPE_CHECKING:
    from .project import Module, ProjectModel


class Rule:
    """Base class for analysis rules.

    Subclasses set the class attributes and implement :meth:`check`
    and/or :meth:`check_project`.  ``units`` restricts where
    :meth:`check` runs: ``None`` means every analyzed module, otherwise
    a module runs the rule only when its layering unit is in the set.
    ``exempt`` names the units or modules the rule never runs on —
    typically the one owner of what the rule confines.
    """

    rule_id: str = ""
    title: str = ""
    units: frozenset[str] | None = None
    exempt: frozenset[str] = frozenset()

    def applies_to(self, module: Module) -> bool:
        """Does :meth:`check` run on ``module``?"""
        if module.unit in self.exempt or module.module_name in self.exempt:
            return False
        return self.units is None or module.unit in self.units

    def check(self, module: Module) -> Iterator[Finding]:
        """Yield findings for one module."""
        return iter(())

    def check_project(self, model: ProjectModel) -> Iterator[Finding]:
        """Yield findings that need more than one module to see."""
        return iter(())


REGISTRY: dict[str, type[Rule]] = {}


def register(rule_class: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the registry."""
    rule_id = rule_class.rule_id
    if not rule_id:
        raise ValueError(f"{rule_class.__name__} has no rule_id")
    if rule_id in REGISTRY:
        raise ValueError(f"duplicate rule id {rule_id!r}")
    REGISTRY[rule_id] = rule_class
    return rule_class


def make_rules(select: list[str] | None = None) -> list[Rule]:
    """One instance of each selected rule (every registered rule when
    ``select`` is None), sorted by id; an unregistered id is a KeyError."""
    chosen = REGISTRY if select is None else select
    return [REGISTRY[rule_id]() for rule_id in sorted(set(chosen))]
