"""The lint CLI surface: exit codes, JSON mode, rule selection."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.cli import main as repro_main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def test_lint_clean_tree_exits_zero(capsys) -> None:
    code = repro_main(
        ["lint", str(REPO_ROOT / "src"), str(REPO_ROOT / "benchmarks")]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "no violations found" in out


def test_lint_bad_file_exits_nonzero(capsys) -> None:
    # The RP004 fixture fires regardless of unit overrides (the rule is
    # unit-agnostic), so it works through the plain CLI too.
    code = repro_main(["lint", str(FIXTURES / "rp004_bad.py")])
    out = capsys.readouterr().out
    assert code == 1
    assert "RP004" in out


def test_lint_json_is_machine_readable(capsys) -> None:
    code = repro_main(["lint", "--format=json", str(FIXTURES / "rp004_bad.py")])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["paths"] == [str(FIXTURES / "rp004_bad.py")]
    assert payload["summary"]["total"] == len(payload["findings"]) > 0
    finding = payload["findings"][0]
    assert set(finding) == {"path", "line", "column", "rule", "message"}
    assert finding["rule"] == "RP004"


def test_lint_select_runs_only_named_rules(capsys) -> None:
    code = repro_main(
        ["lint", "--select=RP006", str(FIXTURES / "rp004_bad.py")]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "no violations found" in out


def test_lint_unknown_rule_is_usage_error(capsys) -> None:
    code = repro_main(["lint", "--select=RP999", str(FIXTURES)])
    assert code == 2


def test_lint_missing_path_is_usage_error(capsys) -> None:
    code = repro_main(["lint", str(FIXTURES / "does_not_exist.py")])
    assert code == 2


def test_lint_list_rules_prints_catalog(capsys) -> None:
    code = repro_main(["lint", "--list-rules"])
    out = capsys.readouterr().out
    assert code == 0
    for number in range(1, 19):
        assert f"RP{number:03d}" in out


def test_lint_select_reaches_cross_file_rules(capsys, tmp_path, monkeypatch) -> None:
    """One run mode: a rule that needs the whole model is selected like
    any other, and its finding fails the run (no warning tier)."""
    from repro.analysis import project_rules

    target = tmp_path / "hotmod.py"
    target.write_text("class Monitor:\n    def apply(self, update):\n        return update\n")
    monkeypatch.setattr(
        project_rules, "HOT_PATHS", (("hotmod", "Monitor.apply"),)
    )

    code = repro_main(["lint", "--select=RP012", str(target)])
    out = capsys.readouterr().out
    assert code == 1
    assert "RP012" in out


def test_standalone_module_entry_point() -> None:
    """``python -m repro.analysis`` works without the repro CLI."""
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--list-rules"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0
    assert "RP001" in result.stdout
