"""Run one triplify benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; triplify is imported from its
`src/` directory. The run runs operations one after another for
`--seconds` seconds and checks every output against answers computed
from the generated tables. It sets the workload up twelve times, spread
over the run (see `operate`), and reports the median set-up time as
`setup_s`. Human-readable lines come first; the last line of standard
output is one JSON object:

- `--trace 0`: end-to-end metrics, measured with tracing off: setup_s,
  peak_rss_mib and p90_ms of one operation. The median and fastest
  operation, error_rate and each workload's own figures (rows_per_s,
  triples_per_s, per-query percentiles) are printed but left out of the
  JSON: on a shared machine other tenants' load moves the median of an
  operation's time across runs several times more than its 90th
  percentile, which stays within the bound BENCHMARK.json sets.
- `--trace 1`: per-layer metrics. Operations alternate between untraced
  and traced; per-layer values are medians over traced operations, and
  `trace.overhead_s` is the traced minus the untraced median operation
  time. Spans go to perfbench/out/spans-<workload>-<seed>.jsonl. One more
  graph build runs under tracemalloc for `graph.heap_bytes_per_triple`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from spans import Samples, Stopwatch, Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 12
# Operation times kept per run; the timed loop ends early if it fills.
OP_SAMPLES = 2**16
# Collect garbage between operations, outside the timed region, once this
# much wall time has passed since the last collection: after every ingest
# and reload pass (each takes longer), every two to four query rounds. A
# full collection with the query graph alive takes about a tenth of a
# round, so collecting after every round would shorten the timed share.
GC_INTERVAL_S = 0.5

# Per-layer metric -> span name whose self time it reports (per operation).
LAYER_SPANS = {
    "tabular.load_csv_s": "tabular.load_csv",
    "turtle.parse_turtle_s": "turtle.parse_turtle",
    "r2rml.parse_mapping_s": "r2rml.parse_mapping",
    "r2rml.validate_mapping_s": "r2rml.validate_mapping",
    "convert.convert_s": "convert.convert",
    "ntriples.serialize_s": "ntriples.serialize_ntriples",
    "ntriples.parse_s": "ntriples.parse_ntriples",
    "graph.merge_s": "graph.merge",
    "registry.validate_s": "registry.validate_graph",
    "query.parse_query_s": "query.parse_query",
}
COUNTS = (
    "tabular.rows",
    "tabular.bytes",
    "convert.triples_emitted",
    "convert.triples_deduplicated",
    "convert.useful_ratio",
    "convert.skipped_terms",
    "ntriples.bytes",
    "graph.triples",
    "registry.violations",
    "query.result_rows",
)
COUNT_UNITS = {"tabular.bytes": "B", "ntriples.bytes": "B", "convert.useful_ratio": "ratio"}


def import_triplify():
    """Import triplify from this checkout's src/, or exit 2 without a result."""
    src = ROOT / "src"
    if not (src / "triplify" / "__init__.py").is_file():
        print(f"error: no triplify sources at {src}; run from a source checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import triplify

    if Path(triplify.__file__).resolve().parent != src / "triplify":
        print(f"error: imported triplify from {triplify.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def quantile(values, q: int) -> float:
    """The q-th percentile of `values`, interpolated (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_setup(workload, tracer, trace: bool) -> float:
    """Set the workload up once; returns the time of its triplify calls."""
    gc.collect()
    clock = Stopwatch()
    tracer.enabled = trace
    with tracer.span("setup"):
        workload.setup(tracer, clock)
    tracer.enabled = False
    gc.collect()
    return clock.total


@dataclass
class Outcome:
    setups: list[float]  # seconds of each set-up's triplify calls
    untraced: Samples  # seconds per untraced operation
    traced: Samples  # seconds per traced operation
    counts: list[dict]  # workload.counts() of each traced operation
    attempted: int
    failed: int
    failures: dict[str, list[str]]  # check name -> failure messages


def operate(workload, seconds: float, tracer, trace: bool) -> Outcome:
    """Closed loop, one client: run, time and check operations for `seconds`.

    The workload is set up SETUPS times: once before the first operation,
    then between operations every `seconds / SETUPS` of operating time,
    and at the end as many times as are still missing. Set-ups do not
    count against `seconds`. Spreading them over the run samples the
    shared machine at many moments, as the operations do. A raised
    exception fails the check "operation completes".
    """
    out = Outcome([timed_setup(workload, tracer, trace)], Samples(OP_SAMPLES),
                  Samples(OP_SAMPLES), [], 0, 0, {})
    jobs = workload.jobs()
    paused = 0.0
    start = last_gc = perf_counter()

    def elapsed():
        return perf_counter() - start - paused

    while not out.untraced.full and (
        elapsed() < seconds or (trace and not out.traced.count) or not out.attempted
    ):
        job = next(jobs)
        tracer.enabled = trace and out.attempted % 2 == 1
        out.attempted += 1
        t0 = perf_counter()
        try:
            with tracer.span("op"):
                result = workload.run(job, tracer)
        except Exception:  # one failed operation must not end the run
            t1 = perf_counter()
            checks = [("operation completes", traceback.format_exc(limit=3))]
        else:
            t1 = perf_counter()
            checks = [("operation completes", None), *workload.check(job, result)]
            if tracer.enabled:
                out.counts.append(workload.counts(job, result))
            del result
        (out.traced if tracer.enabled else out.untraced).add(t1 - t0)
        tracer.enabled = False
        for name, error in checks:
            errors = out.failures.setdefault(name, [])
            if error is not None:
                errors.append(error)
        out.failed += any(error is not None for _name, error in checks)
        if len(out.setups) < SETUPS and elapsed() >= len(out.setups) * seconds / SETUPS:
            t0 = perf_counter()
            out.setups.append(timed_setup(workload, tracer, trace))
            last_gc = perf_counter()
            paused += last_gc - t0
        elif perf_counter() - last_gc >= GC_INTERVAL_S:
            gc.collect()
            last_gc = perf_counter()
    while len(out.setups) < SETUPS:
        out.setups.append(timed_setup(workload, tracer, trace))
    return out


def layer_metrics(workload, tracer, out: Outcome):
    from workloads import QUERY_CLASSES, heap_bytes_per_triple

    ops = self_times(tracer, "op")
    setups = self_times(tracer, "setup")
    metrics = {}

    def per_op(span_name):
        return statistics.median(op.get(span_name, 0.0) for op in ops)

    for metric, span_name in LAYER_SPANS.items():
        metrics[metric] = (per_op(span_name), "s")
    for kind in QUERY_CLASSES:
        metrics[f"query.execute_{kind}_s"] = (per_op(f"query.execute:{kind}"), "s")
    metrics["registry.synth_s"] = (
        statistics.median(s.get("registry.generate_synthetic", 0.0) for s in setups),
        "s",
    )
    for name in COUNTS:
        value = statistics.median(c.get(name, 0) for c in out.counts) if out.counts else 0
        metrics[name] = (value, COUNT_UNITS.get(name, "count"))
    gc.collect()
    metrics["graph.heap_bytes_per_triple"] = (heap_bytes_per_triple(workload), "B/triple")
    overhead = statistics.median(out.traced.values()) - statistics.median(out.untraced.values())
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.uncovered_s"] = (per_op("uncovered"), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ingest", "reload", "query"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_triplify()
    from workloads import SIZES, WORKLOADS

    trace = args.trace == 1
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tracer = Tracer(trace)
        workload = WORKLOADS[args.workload](args.seed, workdir)
        out = operate(workload, args.seconds, tracer, trace)
        attempted, failed = out.attempted, out.failed
        times_ms = sorted(t * 1000 for t in out.untraced.values())
        p50, p90 = statistics.median(times_ms), quantile(times_ms, 90)
        print(
            f"workload {args.workload}: seed {args.seed}, {SIZES[args.workload]} patients "
            f"per centre, {attempted} operations ({out.untraced.count} untraced)"
        )
        for name, errors in out.failures.items():
            print(f"check {name}: " + (f"{len(errors)} FAILED, first: {errors[0]}" if errors else "ok"))
        print(f"metric error_rate = {failed / attempted:.6g} failed/attempted ({failed}/{attempted})")
        if trace:
            metrics = layer_metrics(workload, tracer, out)
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        else:
            metrics = {
                "setup_s": (statistics.median(out.setups), "s"),
                "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
                "p90_ms": (p90, "ms"),
            }
            print(f"metric min_ms = {times_ms[0]:.6g} ms")
            print(f"metric p50_ms = {p50:.6g} ms")
            for name, (value, unit) in workload.summary(p50).items():
                print(f"metric {name} = {value:.6g} {unit}")
        for name, (value, unit) in metrics.items():
            print(f"metric {name} = {value:.6g} {unit}")
        print(
            json.dumps(
                {
                    "correct": failed == 0,
                    "attempted": attempted,
                    "failed": failed,
                    "metrics": {
                        name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()
                    },
                }
            )
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
