"""Self-test of the benchmark harness.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Not part of tier-1 (``testpaths = ["tests"]``): it spawns the smoke
suite, which takes most of a minute.  It pins what the driver relies on:
``BENCHMARK.json`` is well-formed, the commands print exactly the metric
names and units it lists, and the load generator is byte-stable per seed.
"""

from __future__ import annotations

import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import depths, loadgen, reaper
from benchmarks.e2e.measure import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: sha256 of the smoke script for DEFAULT_SEED, first 12 ticks.  A change
#: here means the benchmark's inputs changed: re-measure the baseline.
PINNED = {
    "dense_nnt": "6007efe4bc2b032020b11bd42a449939ab3949bb6390021082d4a0fc92612155",
    "proximity_join": "897a6ef269dc11d6cd27278f01b4ba8ed93be0ba3530c8f0aaac30cda5ea4405",
    "txn_serve": "3e5163ed07df45261f0fe3be6583e6c9496e06c137e5376bc02ec7063a584134",
    "sparse_sharded_churn": "ffe3b4ae188ec1963ff2319501e1a20ad32c204167e6f8a5bf9d2b49f944dfd6",
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def test_contract_is_well_formed():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert CONTRACT["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(CONTRACT["run_seconds"], int) and 1 <= CONTRACT["run_seconds"] <= 60
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = (
        [w["name"] for w in CONTRACT["workloads"]]
        + [m["name"] for m in CONTRACT["end_to_end"]]
        + [m["name"] for m in CONTRACT["per_layer"]]
    )
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert [w["name"] for w in CONTRACT["workloads"]] == list(loadgen.WORKLOADS)
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


@pytest.mark.parametrize("workload", list(loadgen.WORKLOADS))
def test_script_digest_is_stable_per_seed(workload):
    def digest(seed: int) -> str:
        return loadgen.generate(workload, seed, 1.0, max_ticks=12, smoke=True).digest()

    assert digest(loadgen.DEFAULT_SEED) == digest(loadgen.DEFAULT_SEED)
    assert digest(loadgen.DEFAULT_SEED) == PINNED[workload]
    assert digest(loadgen.DEFAULT_SEED + 1) != PINNED[workload]


def test_leaked_segment_is_counted_and_swept():
    """The leak check must be able to fire: a segment that appears during
    a run and outlives it is a failure, whatever ``close()`` swept."""
    before = depths.segment_census()
    planted = Path("/dev/shm") / f"{depths.SEGMENT_PREFIX}{os.getpid()}-planted-by-test"
    planted.write_bytes(b"x")
    try:
        assert depths.sweep_leaked(before) == 1
        assert not planted.exists()
        assert depths.sweep_leaked(before) == 0
    finally:
        planted.unlink(missing_ok=True)


def test_tracer_takes_collector_time_out_of_spans():
    tracer = Tracer()
    with tracer.collecting_gc(), tracer.span("outer"), tracer.span("inner"):
        gc.collect()
    outer, inner = tracer.spans
    assert inner[6] > 0 and outer[6] == inner[6]
    assert tracer.total("inner", "") == pytest.approx(inner[2] - inner[1] - inner[6])
    assert tracer.gc_total("outer", "") == outer[6]
    with tracer.span("later"):  # not collecting any more
        gc.collect()
    assert tracer.spans[2][6] == 0.0


def _process_census() -> set[int]:
    """Every python process on the host, ended-but-unwaited ones included."""
    found = set()
    for entry in Path("/proc").iterdir():
        try:
            if entry.name.isdigit() and "python" in (entry / "comm").read_text():
                found.add(int(entry.name))
        except (FileNotFoundError, ProcessLookupError):
            pass
    return found


def test_reaper_waits_for_an_orphaned_grandchild():
    """A process whose parent has gone is adopted and waited for (the
    shm ``resource_tracker`` of a finished runner is one), and one that
    will not end is killed and counted."""
    script = (
        "import subprocess, sys\n"
        "from benchmarks.e2e import reaper\n"
        "assert reaper.adopt_orphans()\n"
        "orphan = 'import subprocess, sys; subprocess.Popen([sys.executable, \"-c\", "
        "\"import time; time.sleep(%s)\"])'\n"
        "subprocess.run([sys.executable, '-c', orphan % 0.3], check=True)\n"
        "assert reaper.running_children()\n"
        "assert reaper.reap_descendants(grace=5.0) == 0\n"
        "subprocess.run([sys.executable, '-c', orphan % 60], check=True)\n"
        "assert reaper.reap_descendants(grace=0.2) == 1\n"
        "assert not reaper.running_children()\n"
    )
    before = _process_census()
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_env(),
        timeout=60, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert _process_census() <= before


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_exactly_the_contract_metrics(trace, section):
    before = _process_census()
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", "sparse_sharded_churn",
            "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke",
        ],
        capture_output=True, text=True, env=_env(), timeout=170, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    # Nothing the run started is alive (or unwaited) once it has exited.
    assert _process_census() <= before
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in CONTRACT[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_smoke_suite_prints_every_metric_for_every_workload(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--smoke", "--trace", "--out", str(out)],
        capture_output=True, text=True, env=_env(), timeout=600, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    printed: dict[str, dict[str, str]] = {}
    for line in done.stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] in loadgen.WORKLOADS:
            printed.setdefault(parts[0], {})[parts[1]] = parts[3]
    expected = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]}
    for workload in loadgen.WORKLOADS:
        missing = {k: v for k, v in expected.items() if printed[workload].get(k) != v}
        assert not missing, f"{workload} did not print {missing}"
    record = json.loads(out.read_text())
    assert record["smoke"] is True and len(record["sets"]) == 1


def test_run_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the command must fail
    without printing a result (the driver checks the same)."""
    target = tmp_path / "benchmarks" / "e2e"
    target.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (target / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "dense_nnt",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, env=env, timeout=170, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
