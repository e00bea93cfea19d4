"""Run two sets of benchmark runs and report whether they are steady and agree.

    python3 perfbench/agree.py [--workloads ingest query]

Every run is a fresh process started with BENCHMARK.json's command and
run_seconds, so each workload's peak RSS is its own. Each workload runs
ten times per set, set 1 with seeds 1-10 and set 2 with seeds 11-20.
For every end-to-end metric the report gives each set's median and
spread (first-to-third quartile distance as a share of the median,
quartiles as `statistics.quantiles(values, n=4)` gives them). A metric
is steady when both sets' spreads are within its bound; the sets agree
when their medians differ, either way, by at most the bound as a share
of the first set's median. Exits 1 when any check fails or any run is
incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SETS = 2


def one_run(spec, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)

    ok = True
    summary = {}
    for workload in args.workloads:
        sets = []
        for s in range(SETS):
            values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
            for i in range(RUNS):
                seed = 1 + s * RUNS + i
                result = one_run(spec, workload, seed)
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed}: incorrect ({result['failed']} failed)")
                    ok = False
                for name in values:
                    values[name].append(result["metrics"][name]["value"])
                print(f"{workload} set {s + 1} seed {seed}: "
                      + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
            sets.append(values)
        summary[workload] = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = [statistics.median(v[name]) for v in sets]
            spreads = [spread(v[name]) for v in sets]
            steady = max(spreads) <= bound
            agree = abs(medians[1] - medians[0]) / medians[0] <= bound
            ok = ok and steady and agree
            summary[workload][name] = {
                "medians": medians,
                "spreads": spreads,
                "bound": bound,
                "steady": steady,
                "agree": agree,
            }
            print(
                f"{workload:8s} {name:14s} medians "
                + " ".join(f"{m:.5g}" for m in medians)
                + " spreads " + " ".join(f"{x:.3f}" for x in spreads)
                + f" bound {bound} {'steady' if steady else 'NOT STEADY'}"
                + f" {'agree' if agree else 'DISAGREE'}",
                flush=True,
            )
    print(json.dumps({"ok": ok, "workloads": summary}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
