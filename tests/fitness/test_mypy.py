"""Type-checks ``src/repro`` with the mypy profile in pyproject.toml.

Skipped when mypy is not installed (the container images used for
tier-1 runs do not ship it); CI installs mypy and runs this for real.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

pytestmark = pytest.mark.skipif(
    importlib.util.find_spec("mypy") is None, reason="mypy not installed"
)


def test_baseline_config_passes() -> None:
    """The repo-wide (non-strict) mypy profile from pyproject.toml."""
    result = subprocess.run(
        [sys.executable, "-m", "mypy"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stdout + result.stderr
