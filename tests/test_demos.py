"""Each demo runs to completion in a new process, and prints the same
bytes under two hash seeds."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(demo: Path, hash_seed: int) -> subprocess.CompletedProcess:
    """The demo in a new process under PYTHONHASHSEED=hash_seed, reading
    this checkout's `src`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = str(hash_seed)
    return subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=env, timeout=120
    )


def test_the_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_0_and_prints_the_same_under_two_hash_seeds(demo):
    first, second = run_demo(demo, 1), run_demo(demo, 2)
    for done in (first, second):
        assert done.returncode == 0, done.stderr.decode(errors="replace")
    assert first.stdout
    assert first.stdout == second.stdout
