"""A short run of each benchmark workload passes the benchmark's own
checks of its outputs. `perfbench/run.py` exits 0 even when a check
fails; the last line of its standard output is the verdict."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_short_run_is_correct_with_no_failed_operation(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload]
        + ["--seed", "1", "--seconds", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    verdict = json.loads(done.stdout.splitlines()[-1])
    assert verdict["correct"] is True and verdict["failed"] == 0, done.stdout
