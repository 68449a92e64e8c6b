"""The analyzer: file discovery, rule dispatch, suppression.

Every run — the CLI, ``tests/fitness``, CI — goes one way: parse the
sources once into a :class:`~repro.analysis.project.ProjectModel`, call
each selected rule's ``check`` on the modules its scope covers and its
``check_project`` once, then drop the findings waived per line.

Stdlib-only by design (the layering matrix pins ``repro.analysis`` to
zero internal imports) so it can lint the very tree it lives in without
import-order hazards.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from .findings import Finding
from .project import ProjectModel, SourceEntry
from .rules import make_rules
from .suppressions import SuppressionIndex
from . import rulepack  # noqa: F401 - importing registers the rule pack
from . import project_rules  # noqa: F401 - registers the cross-file rule pack

#: Directory names never descended into during discovery.
_SKIP_DIRS = {
    ".git",
    ".hg",
    "__pycache__",
    ".mypy_cache",
    ".pytest_cache",
    ".venv",
    "venv",
    "build",
    "dist",
    "results",
}


def iter_python_files(paths: Sequence[Path | str]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            files.add(path)
        elif path.is_dir():
            for candidate in path.rglob("*.py"):
                # Only what lies *below* the given root decides: a
                # checkout under a directory called ``build`` is not skipped.
                below = candidate.relative_to(path).parts
                if not any(part in _SKIP_DIRS for part in below):
                    files.add(candidate)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(files)


def analyze_paths(
    paths: Sequence[Path | str], select: list[str] | None = None
) -> list[Finding]:
    """Analyze files and directory trees; sorted, suppression-filtered.

    One unreadable or non-UTF-8 file degrades to an ``RP000`` finding
    for that file — the rest of the run continues.
    """
    entries: list[SourceEntry] = []
    unreadable: list[Finding] = []
    for file in iter_python_files(paths):
        try:
            entries.append((file.read_text(encoding="utf-8"), str(file), None, None))
        except (OSError, UnicodeDecodeError) as error:
            unreadable.append(
                Finding(str(file), 1, 1, "RP000", f"unreadable file: {error}")
            )
    return sorted(unreadable + analyze_sources(entries, select))


def analyze_sources(
    entries: Sequence[SourceEntry], select: list[str] | None = None
) -> list[Finding]:
    """Analyze in-memory ``(source, path, module_name, unit)`` modules
    under the ``select``-ed rules (all when None).

    A ``module_name`` / ``unit`` overrides the path-derived identity —
    fitness tests use this to run fixture files *as if* they lived in a
    specific package.  A syntax error degrades to an ``RP000`` finding.
    """
    model = ProjectModel(entries)
    rules = make_rules(select)
    findings: list[Finding] = []
    for module in model.parsed:
        for rule in rules:
            if rule.applies_to(module):
                findings.extend(rule.check(module))
    for rule in rules:
        findings.extend(rule.check_project(model))
    sources = {module.path: module.source for module in model.parsed}
    waivers: dict[str, SuppressionIndex] = {}
    kept = list(model.errors)
    for finding in findings:
        if finding.path not in waivers:
            waivers[finding.path] = SuppressionIndex(sources[finding.path])
        if not waivers[finding.path].is_suppressed(finding.line, finding.rule_id):
            kept.append(finding)
    return sorted(kept)
