"""A short run of each benchmark workload passes the benchmark's own
checks of its outputs. `perfbench/run.py` exits 0 even when a check
fails; the last line of its standard output is the verdict. The stage
script `bench/stages.py` writes a figure for every stage, alone or paired
against another source tree."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
# the stage script's own STAGES and ROUNDS; it imports triplify only when run
SPEC = importlib.util.spec_from_file_location("stages", ROOT / "bench" / "stages.py")
STAGE_SCRIPT = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(STAGE_SCRIPT)
STAGES = list(STAGE_SCRIPT.STAGES)


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
    for size in report.values():
        assert size["triples"] > 0
        assert list(size["stages"]) == STAGES
        for figures in size["stages"].values():
            assert figures.keys() == {"cpu_s", "cpu_min_s", "peak_mib"}
            assert 0 <= figures["cpu_min_s"] <= figures["cpu_s"] and figures["peak_mib"] > 0


def test_a_tree_paired_against_itself_reads_ratios_near_one(tmp_path):
    out = tmp_path / "paired.json"
    done = subprocess.run(
        [sys.executable, "bench/stages.py", str(out), "--sizes", "40"]
        + ["--against", str(ROOT)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    (size,) = json.loads(out.read_text(encoding="utf-8")).values()
    rounds = STAGE_SCRIPT.ROUNDS
    assert size["triples"] > 0 and size["rounds"] == rounds
    assert list(size["stages"]) == STAGES
    for figures in size["stages"].values():
        assert figures.keys() == {
            "ratio", "ratio_lo", "ratio_hi", "wins", "cpu_s", "against_cpu_s",
            "peak_mib", "against_peak_mib",
        }
        assert figures["ratio_lo"] <= figures["ratio"] <= figures["ratio_hi"]
        # a loose band: the timings at this size are a fraction of a millisecond
        assert 0.2 <= figures["ratio"] <= 5 and 0 <= figures["wins"] <= rounds
        # a peak does not drift with load: one tree's two peaks agree
        peak, against_peak = figures["peak_mib"], figures["against_peak_mib"]
        assert peak > 0 and abs(peak - against_peak) <= 0.01 * max(peak, against_peak)
