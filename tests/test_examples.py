"""The shipped examples must stay runnable (they are executable docs).

Each one runs as a user would run it: ``python examples/<name>.py`` in a
fresh interpreter, from an empty working directory, under a timeout.  So
an example left pointing at a removed API fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
SRC = EXAMPLES_DIR.parent / "src"
EXAMPLES = sorted(path.name for path in EXAMPLES_DIR.glob("*.py"))


def run_example(name: str, cwd: Path) -> str:
    """``name``'s stdout; fails the test on a non-zero exit."""
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, f"{name} exited {result.returncode}:\n{result.stderr}"
    return result.stdout


@pytest.mark.parametrize("example", EXAMPLES)
def test_example_runs_clean(example, tmp_path):
    assert run_example(example, tmp_path).strip(), f"{example} produced no output"


def test_expected_examples_present():
    assert {
        "quickstart.py",
        "network_intrusion.py",
        "fraud_ring.py",
        "chemical_reactions.py",
        "proximity_monitoring.py",
    } <= set(EXAMPLES)


def test_quickstart_soundness_line(tmp_path):
    assert "soundness check passed" in run_example("quickstart.py", tmp_path)


def test_module_search_path_unpolluted():
    # Examples must not rely on sys.path side effects.
    assert str(EXAMPLES_DIR) not in sys.path
