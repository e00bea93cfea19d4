"""CPU time and traced memory peak of each stage of the triplify pipeline.

    python3 bench/stages.py OUT.json [--sizes 2000 20000 70000]
    python3 bench/stages.py OUT.json --against DIR [--sizes ...]

Run from a source checkout; triplify is imported from its `src/`. For
each size, synthetic tables of that many patients, from seed 1, go
through synth, load_csv, convert, serialize_ntriples, parse_ntriples,
validate_graph and two queries. The tables' CSV texts and their
N-Triples text are made once; each stage's input is made from them.
Two more stages read copies of that text the writer would not make:
parse_foreign one with a comment first line, CRLF line ends and an
escaped literal last, and parse_broken one with a relative IRI on its
last line, whose ParseError the stage returns.
validate_graph checks that graph against the builtin shapes, and
validate_flagged against the same shapes with every bound set to 0 0,
so that every focus node that holds a value violates each of them.
Both, and the queries, each get a fresh copy of the parsed graph, with
no index or table built yet.

Alone, each stage runs REPEATS times timed with process CPU time, and
its median (`cpu_s`) and minimum (`cpu_min_s`) are reported, then once
more, on an equal input, under tracemalloc for its peak. On a shared
machine the minimum is the run least disturbed by other load.

With `--against DIR`, DIR being another source checkout, the inputs are
written once as text and both trees run every stage by turns, each in a
worker process of its own that imports triplify from its tree: ROUNDS
rounds of one timed call per tree, the tree that goes first alternating
by round. For each stage the median of the per-round ratios of this
tree's CPU time to DIR's (`ratio`, below 1 when this tree is faster),
the least and greatest of them (`ratio_lo`, `ratio_hi`), the rounds this
tree took less time (`wins`) and each tree's median (`cpu_s`,
`against_cpu_s`) are reported. After its rounds each worker runs the
stage once more under tracemalloc, for each tree's peak (`peak_mib`,
`against_peak_mib`). A stage neither tree changed spreads its ratios
about 1; a change shows as a spread that leaves 1 out. Load on a shared
machine moves over minutes, so only a figure from one such paired run
compares two trees; a peak does not move with load.

OUT maps each size to its triple count and stages.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
SEED = 1
REPEATS = 5  # timed runs of each stage; one run varies by 20% or more
ROUNDS = 7  # paired rounds of each stage with --against
TABLES = ("PATIENT", "TREATMENT")

QUERIES = {
    "query_join": "SELECT ?p ?t WHERE { ?p roo:P100039 ?t . ?t roo:P100042 ncit:C15402 . }",
    "query_filter": "SELECT ?p ?age WHERE { ?p roo:P100027 ?age . FILTER(?age >= 65) }",
}
STAGES = (
    "synth",
    "load_csv",
    "convert",
    "serialize_ntriples",
    "parse_ntriples",
    "parse_foreign",
    "parse_broken",
    "validate_graph",
    "validate_flagged",
    *QUERIES,
)

T = None  # the triplify package, imported from the tree being measured


def use_tree(tree: Path) -> None:
    global T
    sys.path.insert(0, str(tree / "src"))
    import triplify

    assert Path(triplify.__file__).resolve().is_relative_to(tree.resolve()), triplify.__file__
    T = triplify


def make_texts(n: int) -> tuple[dict[str, str], str]:
    """Each table's CSV text, and the N-Triples text of their conversion."""
    texts = {name: T.write_csv(table) for name, table in T.generate_synthetic(n, SEED).items()}
    loaded = {name: T.load_csv(text, name) for name, text in texts.items()}
    return texts, T.serialize_ntriples(T.convert(T.bundled_mapping(), loaded)[0])


def prepare(name: str, n: int, texts: dict[str, str], nt: str):
    """The call that is stage `name`, and the maker of its input."""
    if name == "synth":
        return lambda _: T.generate_synthetic(n, SEED), lambda: None
    load = lambda: {k: T.load_csv(text, k) for k, text in texts.items()}  # noqa: E731
    if name == "load_csv":
        return lambda _: load(), lambda: None
    mapping = T.bundled_mapping()
    if name == "convert":
        loaded = load()
        return lambda tables: T.convert(mapping, tables)[0], lambda: loaded
    if name == "serialize_ntriples":
        graph = T.convert(mapping, load())[0]
        return T.serialize_ntriples, lambda: graph
    if name == "parse_ntriples":
        return T.parse_ntriples, lambda: nt
    if name == "parse_foreign":
        foreign = "# exported\n" + nt + '<http://e.org/s> <http://e.org/p> "caf\\u00E9" .\n'
        foreign = foreign.replace("\n", "\r\n")
        return T.parse_ntriples, lambda: foreign
    if name == "parse_broken":
        broken = nt + "<http://e.org/s> <http://e.org/p> <rel> .\n"
        return refused, lambda: broken
    parsed = T.parse_ntriples(nt)
    if name in ("validate_graph", "validate_flagged"):
        shapes = T.builtin_shapes()
        if name == "validate_flagged":
            zero = lambda c: replace(c, min_count=0, max_count=0)  # noqa: E731
            shapes = [replace(s, constraints=tuple(map(zero, s.constraints))) for s in shapes]
        return lambda g: T.validate_graph(g, shapes), lambda: T.merge([parsed])
    q = T.parse_query(QUERIES[name], T.registry_prefixes())
    return lambda g: T.execute(g, q), lambda: T.merge([parsed])


def refused(text: str):
    """The ParseError that parsing text raises."""
    try:
        T.parse_ntriples(text)
    except T.errors.ParseError as exc:
        return exc
    raise AssertionError("a broken document was read")


def timed(stage, make_input) -> float:
    """The CPU time of one call of stage on a new input."""
    arg = make_input()
    start = time.process_time()
    stage(arg)
    return time.process_time() - start


def traced(stage, make_input) -> float:
    """The tracemalloc peak of one call of stage on a new input, in MiB."""
    arg = make_input()
    tracemalloc.start()
    stage(arg)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak / 2**20


def measure(stage, make_input) -> dict:
    """stage timed REPEATS times, then run again under tracemalloc: its
    median and least CPU time and its peak."""
    times = [timed(stage, make_input) for _ in range(REPEATS)]
    return {
        "cpu_s": round(statistics.median(times), 4),
        "cpu_min_s": round(min(times), 4),
        "peak_mib": round(traced(stage, make_input), 2),
    }


def run(n: int) -> dict:
    texts, nt = make_texts(n)
    stages = {name: measure(*prepare(name, n, texts, nt)) for name in STAGES}
    return {"triples": nt.count("\n"), "stages": stages}


def work(n: int, inputs: Path) -> None:
    """A worker: read stage names, one a line, and answer each with the
    CPU time of one call of that stage, or, for a name followed by
    `peak`, with its tracemalloc peak in MiB. A stage's input is made
    when its name first comes, and the previous stage's is dropped."""
    texts = {k: (inputs / f"{k}.csv").read_bytes().decode() for k in TABLES}
    nt = (inputs / "graph.nt").read_bytes().decode()
    current = prepared = None
    for line in sys.stdin:
        name, *peak = line.split()
        if name != current:
            prepared = None  # the last stage's input is freed first
            current, prepared = name, prepare(name, n, texts, nt)
        print((traced if peak else timed)(*prepared), flush=True)


def run_paired(n: int, against: Path) -> dict:
    texts, nt = make_texts(n)
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp)
        for k, text in texts.items():
            (inputs / f"{k}.csv").write_bytes(text.encode())
        (inputs / "graph.nt").write_bytes(nt.encode())
        triples = nt.count("\n")
        del texts, nt
        workers = [
            subprocess.Popen(
                [sys.executable, __file__, "-", "--worker", str(tree), "--inputs", tmp]
                + ["--sizes", str(n)],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
            for tree in (HERE, against)
        ]

        def ask(worker, name: str) -> float:
            worker.stdin.write(name + "\n")
            worker.stdin.flush()
            return float(worker.stdout.readline())

        stages = {}
        try:
            for name in STAGES:
                mine, theirs = [], []
                for r in range(ROUNDS):
                    turns = [(workers[0], mine), (workers[1], theirs)]
                    for worker, times in turns[:: 1 if r % 2 == 0 else -1]:
                        times.append(ask(worker, name))
                peak, against_peak = (ask(worker, f"{name} peak") for worker in workers)
                ratios = [a / b for a, b in zip(mine, theirs)]
                stages[name] = {
                    "ratio": round(statistics.median(ratios), 3),
                    "ratio_lo": round(min(ratios), 3),
                    "ratio_hi": round(max(ratios), 3),
                    "wins": sum(a < b for a, b in zip(mine, theirs)),
                    "cpu_s": round(statistics.median(mine), 4),
                    "against_cpu_s": round(statistics.median(theirs), 4),
                    "peak_mib": round(peak, 4),
                    "against_peak_mib": round(against_peak, 4),
                }
        finally:
            for worker in workers:
                worker.stdin.close()
                worker.wait()
    return {"triples": triples, "rounds": ROUNDS, "stages": stages}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--sizes", type=int, nargs="+", default=[2000, 20000, 70000])
    parser.add_argument("--against", type=Path, help="another source checkout to compare with")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--inputs", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    use_tree(args.worker or HERE)
    if args.worker:
        work(args.sizes[0], args.inputs)
        sys.exit()
    if args.against is not None:
        if not (args.against / "src" / "triplify").is_dir():
            parser.error(f"--against {args.against}: no src/triplify there")
        report = {str(n): run_paired(n, args.against.resolve()) for n in args.sizes}
    else:
        report = {str(n): run(n) for n in args.sizes}
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
