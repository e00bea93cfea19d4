"""The benchmark's workloads: set-up, one timed operation, and its check.

Each workload makes the same calls, in the same order, as the triplify
command a user would run, with one span around each call into a module:

- ingest: one centre's CSV export to canonical N-Triples (`triplify
  convert`). Graph writes only; convert does most of the work.
- reload: two centres' N-Triples files parsed, merged and validated,
  which `triplify validate`, `stats` and `query` pay before anything else.
  N-Triples parsing, graph bulk insert and shape validation; no convert.
- query: SELECT queries, parse_query then execute, over a merged
  two-centre graph held in memory. One client in a closed loop; an
  operation is one round of every class's query shapes (point, scan and
  join; see inputs.query_rounds). Graph reads and query evaluation only.

A set-up makes the workload's inputs with triplify's own calls (the
synthetic generator, convert, serialize, merge), each timed with the
set-up's stopwatch; the benchmark's own work between them (dirt, file
writes) is not timed. The oracle is built once, before any set-up.

Operations return their output; `check` compares it with answers
computed from the generated tables (see inputs.Oracle) and returns a
list of (check name, None or failure message).
"""

from __future__ import annotations

import hashlib
import statistics
import tracemalloc
from itertools import repeat
from pathlib import Path
from time import perf_counter

import triplify as T
from triplify.registry import bundled_mapping_text

from inputs import Oracle, answer_rows, make_dirty, query_rounds
from spans import Samples, Stopwatch, Tracer

# Patients per centre. Sized so that a 30 s run holds at least ~40
# operations of every workload on a 2-core machine (see BASELINE.json).
SIZES = {"ingest": 2500, "reload": 600, "query": 1000}
QUERY_CLASSES = ("point", "scan", "join")
# Per-query times kept for each class's printed percentiles.
QUERY_SAMPLES = 2**16


def _expect(name: str, got, want):
    """One named check: (name, None) when got == want, else (name, message)."""
    return name, None if got == want else f"got {got}, expected {want}"


def _two_centres(seed: int) -> list[tuple[str, int]]:
    """(ID prefix, generator seed) of each centre in a two-centre workload."""
    return [("A", 2 * seed + 1), ("B", 2 * seed + 2)]


def _centres(specs, n: int, tr, clock) -> list[dict[str, T.TableSource]]:
    """Each centre's tables: generated by triplify (timed), then made dirty."""
    centres = []
    for prefix, seed in specs:
        with clock, tr.span("registry.generate_synthetic"):
            tables = T.generate_synthetic(n, seed)
        centres.append(make_dirty(tables, prefix, seed))
    return centres


def _oracle(specs, n: int) -> Oracle:
    return Oracle(_centres(specs, n, Tracer(False), Stopwatch()))


def _convert_centres(specs, n: int, tr, clock):
    centres = _centres(specs, n, tr, clock)
    with clock, tr.span("registry.bundled_mapping"):
        mapping = T.bundled_mapping()
    graphs = []
    for tables in centres:
        with clock, tr.span("convert.convert"):
            graphs.append(T.convert(mapping, tables)[0])
    return centres, graphs


class Ingest:
    name = "ingest"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.n = SIZES["ingest"]
        self.mapping_path = workdir / "mapping.ttl"
        self.csv_paths = [workdir / "PATIENT.csv", workdir / "TREATMENT.csv"]
        self.output_path = workdir / "graph.nt"
        self.digest = None
        self.specs = [("", seed)]
        self.oracle = _oracle(self.specs, self.n)
        self.mapping_path.write_text(bundled_mapping_text(), encoding="utf-8")

    def setup(self, tr, clock) -> None:
        (self.tables,) = _centres(self.specs, self.n, tr, clock)
        self.csv_bytes = 0
        for path in self.csv_paths:
            with clock, tr.span("tabular.write_csv"):
                text = T.write_csv(self.tables[path.stem])
            path.write_text(text, encoding="utf-8")
            self.csv_bytes += len(text.encode("utf-8"))

    def jobs(self):
        return repeat(None)

    def run(self, _job, tr):
        mapping_text = self.mapping_path.read_text(encoding="utf-8")
        with tr.span("turtle.parse_turtle"):
            doc, prefixes = T.parse_turtle(mapping_text)
        with tr.span("r2rml.parse_mapping"):
            mapping = T.parse_mapping(doc, prefixes, source_name=str(self.mapping_path))
        tables = {}
        for path in self.csv_paths:
            text = path.read_text(encoding="utf-8")
            with tr.span("tabular.load_csv"):
                tables[path.stem] = T.load_csv(text, path.stem)
        available = {name: set(t.columns) for name, t in tables.items()}
        with tr.span("r2rml.validate_mapping"):
            diagnostics = T.validate_mapping(mapping, available)
        if any(d.severity == "error" for d in diagnostics):
            raise RuntimeError(f"mapping diagnostics: {diagnostics}")
        with tr.span("convert.convert"):
            graph, report = T.convert(mapping, tables)
        with tr.span("ntriples.serialize_ntriples"):
            text = T.serialize_ntriples(graph)
        self.output_path.write_text(text, encoding="utf-8")
        return graph, report, text, sum(len(t.rows) for t in tables.values())

    def check(self, _job, out):
        graph, report, text, rows = out
        oracle = self.oracle
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        results = []
        if self.digest is None:
            self.digest = digest
            # Once per run: the converted graph violates the shapes exactly
            # where the injected dirt says it must.
            violations = len(T.validate_graph(graph, T.builtin_shapes()).violations)
            results.append(_expect("shape violations = injected dirt", violations, oracle.violations))
        results += [
            _expect("output identical to the first pass (sha256)", digest, self.digest),
            _expect("rows loaded = tables", rows, oracle.rows),
            _expect("graph triples = oracle", len(graph), oracle.triples),
            _expect("report triples = oracle", report.triples_emitted, oracle.triples),
            _expect("N-Triples lines = oracle", text.count("\n"), oracle.triples),
            _expect("duplicates collapsed = oracle", report.triples_deduplicated, oracle.duplicates),
            _expect("skipped terms = injected dirt", len(report.skipped_terms), oracle.skipped_terms),
        ]
        return results

    def counts(self, _job, out):
        graph, report, text, rows = out
        emitted, dup = report.triples_emitted, report.triples_deduplicated
        return {
            "tabular.rows": rows,
            "tabular.bytes": self.csv_bytes,
            "convert.triples_emitted": emitted,
            "convert.triples_deduplicated": dup,
            "convert.useful_ratio": emitted / (emitted + dup),
            "convert.skipped_terms": len(report.skipped_terms),
            "ntriples.bytes": len(text.encode("utf-8")),
            "graph.triples": len(graph),
        }

    def build_graph(self):
        graph, _report = T.convert(T.bundled_mapping(), self.tables)
        return graph

    def summary(self, p50_ms):
        return {"rows_per_s": (self.oracle.rows / (p50_ms / 1000), "rows/s")}


class Reload:
    name = "reload"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.n = SIZES["reload"]
        self.paths = [workdir / "centre_a.nt", workdir / "centre_b.nt"]
        self.specs = _two_centres(seed)
        self.oracle = _oracle(self.specs, self.n)

    def setup(self, tr, clock) -> None:
        _centres, graphs = _convert_centres(self.specs, self.n, tr, clock)
        self.nt_bytes = 0
        for path, graph in zip(self.paths, graphs):
            with clock, tr.span("ntriples.serialize_ntriples"):
                text = T.serialize_ntriples(graph)
            path.write_text(text, encoding="utf-8")
            self.nt_bytes += len(text.encode("utf-8"))
        with clock, tr.span("graph.merge"):
            self.reference = T.merge(graphs)
        with clock, tr.span("registry.builtin_shapes"):
            self.shapes = T.builtin_shapes()

    def jobs(self):
        return repeat(None)

    def run(self, _job, tr):
        graphs = []
        for path in self.paths:
            text = path.read_text(encoding="utf-8")
            with tr.span("ntriples.parse_ntriples"):
                graphs.append(T.parse_ntriples(text))
        with tr.span("graph.merge"):
            merged = T.merge(graphs)
        with tr.span("registry.validate_graph"):
            report = T.validate_graph(merged, self.shapes)
        return merged, report

    def check(self, _job, out):
        merged, report = out
        return [
            _expect("merged triples = oracle", len(merged), self.oracle.triples),
            ("merged graph = graphs converted in set-up",
             None if merged == self.reference else "graphs differ"),
            _expect("shape violations = injected dirt", len(report.violations), self.oracle.violations),
        ]

    def counts(self, _job, out):
        merged, report = out
        return {
            "ntriples.bytes": self.nt_bytes,
            "graph.triples": len(merged),
            "registry.violations": len(report.violations),
        }

    def build_graph(self):
        graphs = [T.parse_ntriples(p.read_text(encoding="utf-8")) for p in self.paths]
        return T.merge(graphs)

    def summary(self, p50_ms):
        return {"triples_per_s": (len(self.reference) / (p50_ms / 1000), "triples/s")}


class Query:
    """Queries of every class over the merged graph of two centres."""

    name = "query"

    def __init__(self, seed: int, _workdir: Path):
        self.seed = seed
        self.n = SIZES["query"]
        self.prefixes = T.registry_prefixes()
        self.specs = _two_centres(seed)
        self.oracle = _oracle(self.specs, self.n)
        self.query_seconds = {kind: Samples(QUERY_SAMPLES) for kind in QUERY_CLASSES}

    def setup(self, tr, clock) -> None:
        self.centres, graphs = _convert_centres(self.specs, self.n, tr, clock)
        with clock, tr.span("graph.merge"):
            self.graph = T.merge(graphs)

    def jobs(self):
        """Rounds of (class, query text, expected answer): every class's shapes in turn."""
        streams = [(kind, query_rounds(kind, self.oracle, self.seed)) for kind in QUERY_CLASSES]
        while True:
            yield [(kind, *query) for kind, rounds in streams for query in next(rounds)]

    def run(self, job, tr):
        solutions = []
        for kind, text, _expected in job:
            t0 = perf_counter()
            with tr.span("query.parse_query"):
                query = T.parse_query(text, self.prefixes)
            with tr.span(f"query.execute:{kind}"):
                solutions.append(T.execute(self.graph, query))
            self.query_seconds[kind].add(perf_counter() - t0)
        return solutions

    def check(self, job, solutions):
        duplicates = wrong = None
        for (_kind, text, expected), solution in zip(job, solutions):
            rows = answer_rows(solution)
            if len(set(rows)) != len(rows):
                duplicates = f"duplicate rows for {text!r}"
            if set(rows) != expected:
                wrong = f"{len(rows)} rows for {text!r}, oracle has {len(expected)}"
        return [("no duplicate result rows", duplicates), ("answers = table oracle", wrong)]

    def counts(self, _job, solutions):
        return {
            "graph.triples": len(self.graph),
            "query.result_rows": sum(len(s.rows) for s in solutions),
        }

    def build_graph(self):
        mapping = T.bundled_mapping()
        return T.merge([T.convert(mapping, tables)[0] for tables in self.centres])

    def summary(self, _p50_ms):
        metrics = {}
        for kind, samples in self.query_seconds.items():
            per_query = sorted(t * 1000 for t in samples.values())
            metrics[f"{kind}_p50_ms"] = (statistics.median(per_query), "ms per query")
            metrics[f"{kind}_p90_ms"] = (
                statistics.quantiles(per_query, n=10, method="inclusive")[-1],
                "ms per query",
            )
        return metrics


def heap_bytes_per_triple(workload) -> float:
    """Bytes tracemalloc attributes to the graph the workload builds, per triple."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        graph = workload.build_graph()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return held / len(graph)


WORKLOADS = {"ingest": Ingest, "reload": Reload, "query": Query}

