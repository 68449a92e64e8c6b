"""Every rule fires on its known-bad fixture, and ``# repro: noqa``
suppresses exactly the named rule on exactly that line.

Fixture protocol: each ``fixtures/rpNNN_bad.py`` is analyzed *as if* it
lived at a specific module path (unit override); every line carrying an
``expect-violation`` marker must yield exactly one finding of the rule
under test, and no other line may yield any.  Lines whose marker
coexists with a ``# repro: noqa[OTHER-ID]`` comment prove that waiving
a *different* rule does not silence this one.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.analysis import Finding, analyze_sources

FIXTURES = Path(__file__).parent / "fixtures"

#: single-file fixture -> (rule id, pretend module name, pretend unit).
#: Every fixture runs under *all* registered rules and must still yield
#: only its own id.
CASES = {
    "rp001_bad.py": ("RP001", "repro.nnt.badmod", "repro.nnt"),
    "rp002_bad.py": ("RP002", "repro.datasets.badmod", "repro.datasets"),
    "rp003_bad.py": ("RP003", "repro.nnt.badmod", "repro.nnt"),
    "rp004_bad.py": ("RP004", "repro.core.badmod", "repro.core"),
    "rp005_bad.py": ("RP005", "repro.join.badmod", "repro.join"),
    "rp006_bad.py": ("RP006", "benchmarks.bench_badmod", "benchmarks"),
    "rp007_bad.py": ("RP007", "repro.core.badmod", "repro.core"),
    "rp008_bad.py": ("RP008", "repro.core.badmod", "repro.core"),
    "rp009_bad.py": ("RP009", "repro.join.badmod", "repro.join"),
    "rp010_bad.py": ("RP010", "repro.runtime.badmod", "repro.runtime"),
    "rp011_bad.py": ("RP011", "repro.runtime.badmod", "repro.runtime"),
    "rp012_bad.py": ("RP012", "repro.core.monitor", "repro.core"),
    "rp013_bad.py": ("RP013", "repro.runtime.badmod", "repro.runtime"),
    "rp014_bad.py": ("RP014", "repro.core.badmod", "repro.core"),
    "rp016_bad.py": ("RP016", "repro.runtime.badmod", "repro.runtime"),
    "rp017_bad.py": ("RP017", "repro.runtime.badmod", "repro.runtime"),
}
#: ... except ``rp012_bad.py``, which has to import ``from repro import
#: obs`` as ``repro.core.monitor`` and trips RP001 doing so.
SELECT = {"rp012_bad.py": ["RP012"]}
#: The fixtures of the rules that were once a separate "project" pack
#: keep their historical test names.
CROSS_FILE = ["rp011_bad.py", "rp012_bad.py", "rp013_bad.py", "rp014_bad.py"]
PER_MODULE = sorted(set(CASES) - set(CROSS_FILE))


def _expected_lines(path: Path) -> set[int]:
    return {
        lineno
        for lineno, text in enumerate(path.read_text().splitlines(), start=1)
        if "expect-violation" in text
    }


def _check_fires(fixture_name: str) -> None:
    rule_id, module_name, unit = CASES[fixture_name]
    path = FIXTURES / fixture_name
    expected = _expected_lines(path)
    assert expected, f"fixture {fixture_name} has no expect-violation markers"

    findings = analyze_sources(
        [(path.read_text(), str(path), module_name, unit)], SELECT.get(fixture_name)
    )

    assert {f.line for f in findings} == expected
    assert {f.rule_id for f in findings} == {rule_id}
    # Exactly one finding per marked line (markers are unambiguous).
    assert len(findings) == len(expected)


def _check_noqa_silences(fixture_name: str) -> None:
    """Appending ``# repro: noqa[RULE-ID]`` to every flagged line mutes
    the fixture completely — proving per-line, per-rule suppression."""
    rule_id, module_name, unit = CASES[fixture_name]
    path = FIXTURES / fixture_name
    lines = path.read_text().splitlines()
    for lineno in _expected_lines(path):
        lines[lineno - 1] += f"  # repro: noqa[{rule_id}]"
    entry = ("\n".join(lines) + "\n", str(path), module_name, unit)

    assert analyze_sources([entry], SELECT.get(fixture_name)) == []


@pytest.mark.parametrize("fixture_name", PER_MODULE)
def test_rule_fires_on_bad_fixture(fixture_name: str) -> None:
    _check_fires(fixture_name)


@pytest.mark.parametrize("fixture_name", PER_MODULE)
def test_matching_noqa_silences_the_rule(fixture_name: str) -> None:
    _check_noqa_silences(fixture_name)


@pytest.mark.parametrize("fixture_name", CROSS_FILE)
def test_project_rule_fires_on_bad_fixture(fixture_name: str) -> None:
    _check_fires(fixture_name)


@pytest.mark.parametrize("fixture_name", CROSS_FILE)
def test_noqa_silences_project_rules(fixture_name: str) -> None:
    _check_noqa_silences(fixture_name)


def _analyze_as_core(source: str) -> list[Finding]:
    return analyze_sources([(source, "<string>", "repro.core.badmod", "repro.core")])


def test_bare_noqa_silences_every_rule() -> None:
    assert _analyze_as_core("def f(items=[]):  # repro: noqa\n    return items\n") == []


def test_noqa_is_line_scoped() -> None:
    """A waiver on one line must not leak to the next."""
    findings = _analyze_as_core(
        "def f(items=[]):  # repro: noqa[RP004]\n"
        "    return items\n"
        "def g(table={}):\n"
        "    return table\n"
    )
    assert [(f.rule_id, f.line) for f in findings] == [("RP004", 3)]


def test_noqa_accepts_comma_separated_ids() -> None:
    source = "def f(items=[]):  # repro: noqa[RP001, RP004]\n    return items\n"
    assert _analyze_as_core(source) == []


# ----------------------------------------------------------------------
# multi-module fixtures: directories of files with ``# module:`` headers
# ----------------------------------------------------------------------

_MODULE_HEADER = re.compile(r"# module: (\S+)")


def _multi_module_entries(
    fixture_dir: str,
) -> list[tuple[str, str, str | None, str | None]]:
    """A directory fixture: each file declares its pretend module with a
    ``# module: <dotted>`` header comment."""
    entries = []
    for path in sorted((FIXTURES / fixture_dir).glob("*.py")):
        text = path.read_text()
        header = _MODULE_HEADER.match(text)
        assert header, f"{path} is missing its '# module:' header"
        entries.append((text, str(path), header.group(1), None))
    return entries


def _expected_sites(
    entries: list[tuple[str, str, str | None, str | None]]
) -> set[tuple[str, int]]:
    expected = {
        (path, lineno)
        for _, path, _, _ in entries
        for lineno in _expected_lines(Path(path))
    }
    assert expected
    return expected


def test_rp015_fires_on_cycle_and_transitive_reach() -> None:
    """The multi-module fixture seeds one import cycle and one
    transitive (two-hop) path from the filtering path to the exact
    matcher; RP015 must report both, anchored at the import lines."""
    entries = _multi_module_entries("rp015_bad")

    findings = analyze_sources(entries, ["RP015"])

    assert {(f.path, f.line) for f in findings} == _expected_sites(entries)
    assert {f.rule_id for f in findings} == {"RP015"}


def test_rp018_fires_on_uncatalogued_metric_name() -> None:
    """The two-module fixture pairs a miniature literal CATALOG with a
    dashboard consumer holding one typo'd metric literal; RP018 must
    flag exactly the typo'd line and leave catalogued names and
    docstring look-alikes alone."""
    entries = _multi_module_entries("rp018_bad")

    findings = analyze_sources(entries, ["RP018"])

    assert {(f.path, f.line) for f in findings} == _expected_sites(entries)
    assert {f.rule_id for f in findings} == {"RP018"}
    assert all("serve.comit.seconds" in f.message for f in findings)


def test_rp018_noqa_silences_the_finding() -> None:
    silenced_entries = []
    for text, path, module, unit in _multi_module_entries("rp018_bad"):
        lines = text.splitlines()
        for lineno in _expected_lines(Path(path)):
            lines[lineno - 1] += "  # repro: noqa[RP018]"
        silenced_entries.append(("\n".join(lines) + "\n", path, module, unit))

    assert analyze_sources(silenced_entries, ["RP018"]) == []


def test_rp018_flags_catalog_module_without_literal_dict() -> None:
    """If the catalog module exists but CATALOG is not a literal dict,
    the rule anchors a single finding on the catalog itself (it cannot
    vouch for any consumer)."""
    catalog_text = (
        "# module: repro.obs.catalog\n"
        "def _build():\n"
        "    return {}\n"
        "CATALOG = _build()\n"
    )
    entries = [
        (catalog_text, "catalog.py", "repro.obs.catalog", None),
    ]

    findings = analyze_sources(entries, ["RP018"])

    assert {f.rule_id for f in findings} == {"RP018"}
    assert len(findings) == 1
    assert "literal" in findings[0].message
