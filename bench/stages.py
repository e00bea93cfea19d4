"""CPU time and traced memory peak of each stage of the triplify pipeline.

    python3 bench/stages.py OUT.json [--sizes 2000 20000 70000]

Run from a source checkout; triplify is imported from its `src/`. For
each size, synthetic tables of that many patients, from seed 1, go
through synth, load_csv, convert, serialize_ntriples, parse_ntriples,
validate_graph and two queries. Each stage runs REPEATS times timed with
process CPU time, and its median (`cpu_s`) and minimum (`cpu_min_s`)
are reported, then once more, on an equal input, under tracemalloc for
its peak. On a shared machine the minimum is the run least disturbed
by other load.
validate_graph and the queries each get a fresh copy of the parsed
graph, with no index or table built yet. OUT maps each size to its
triple count and stages.
"""

import argparse
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import triplify as T  # noqa: E402

SEED = 1
REPEATS = 5  # timed runs of each stage; one run varies by 20% or more

QUERIES = {
    "query_join": "SELECT ?p ?t WHERE { ?p roo:P100039 ?t . ?t roo:P100042 ncit:C15402 . }",
    "query_filter": "SELECT ?p ?age WHERE { ?p roo:P100027 ?age . FILTER(?age >= 65) }",
}


def measure(stage, make_input):
    """stage(make_input()) timed REPEATS times, then again under
    tracemalloc: its last output, its median and least CPU time and its
    peak."""
    times = []
    for _ in range(REPEATS):
        out = arg = None  # the last run's output is freed before the next
        arg = make_input()
        start = time.process_time()
        out = stage(arg)
        times.append(time.process_time() - start)
    arg = make_input()
    tracemalloc.start()
    stage(arg)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return out, {
        "cpu_s": round(statistics.median(times), 4),
        "cpu_min_s": round(min(times), 4),
        "peak_mib": round(peak / 2**20, 2),
    }


def run(n: int) -> dict:
    stages = {}

    def step(name, stage, make_input=lambda: None):
        out, stages[name] = measure(stage, make_input)
        return out

    tables = step("synth", lambda _: T.generate_synthetic(n, SEED))
    texts = {name: T.write_csv(table) for name, table in tables.items()}
    loaded = step("load_csv", lambda _: {k: T.load_csv(text, k) for k, text in texts.items()})
    mapping = T.bundled_mapping()
    graph = step("convert", lambda _: T.convert(mapping, loaded)[0])
    text = step("serialize_ntriples", lambda _: T.serialize_ntriples(graph))
    parsed = step("parse_ntriples", lambda _: T.parse_ntriples(text))
    del tables, texts, loaded, graph, text  # only the parsed graph is read from here on
    shapes = T.builtin_shapes()
    step("validate_graph", lambda g: T.validate_graph(g, shapes), lambda: T.merge([parsed]))
    for name, query_text in QUERIES.items():
        q = T.parse_query(query_text, T.registry_prefixes())
        step(name, lambda g: T.execute(g, q), lambda: T.merge([parsed]))
    return {"triples": len(parsed), "stages": stages}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--sizes", type=int, nargs="+", default=[2000, 20000, 70000])
    args = parser.parse_args()
    report = {str(n): run(n) for n in args.sizes}
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
