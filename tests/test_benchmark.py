"""A short run of each benchmark workload passes the benchmark's own
checks of its outputs. `perfbench/run.py` exits 0 even when a check
fails; the last line of its standard output is the verdict. The stage
script `bench/stages.py` writes a figure for every stage."""

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


def test_the_stage_script_reports_every_stage(tmp_path):
    out = tmp_path / "stages.json"
    done = subprocess.run(
        [sys.executable, "bench/stages.py", str(out), "--sizes", "20", "30"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text(encoding="utf-8"))
    assert list(report) == ["20", "30"]
    stages = [
        "synth",
        "load_csv",
        "convert",
        "serialize_ntriples",
        "parse_ntriples",
        "validate_graph",
        "query_join",
        "query_filter",
    ]
    for size in report.values():
        assert size["triples"] > 0
        assert list(size["stages"]) == stages
        for figures in size["stages"].values():
            assert figures.keys() == {"cpu_s", "cpu_min_s", "peak_mib"}
            assert 0 <= figures["cpu_min_s"] <= figures["cpu_s"] and figures["peak_mib"] > 0
