"""Command-line front door: convert, validate, query, synth, stats.

Exit codes: 0 success, 1 validation or data errors, 2 unusable input
(unreadable files, parse failures, bad usage). Diagnostics go to stderr;
data goes to stdout or --output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from operator import itemgetter
from pathlib import Path
from typing import Optional

from .convert import convert
from .errors import QueryError, TriplifyError
from .graph import Graph, merge
from .ntriples import parse_ntriples, serialize_ntriples
from .query import execute, explain, parse_query
from .registry import (
    _CATEGORIES,
    builtin_shapes,
    generate_synthetic,
    load_shapes,
    predicate_categories,
    registry_prefixes,
    validate_graph,
)
from .r2rml import parse_mapping, validate_mapping
from .tabular import load_csv, write_csv
from .terms import RDF_TYPE
from .turtle import parse_turtle


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _read(path: str) -> str:
    """The file's text with its line ends as written: every reader takes
    LF, CRLF and CR, and a CR inside a quoted value is part of it."""
    try:
        with open(path, encoding="utf-8", newline="") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise TriplifyError(
            f"{path}: not UTF-8 text: byte {exc.start} ({exc.reason})"
        ) from None


def _scope_blank_nodes(g: Graph, prefix: str) -> Graph:
    """The graph with every blank node label prefixed, or the graph itself
    when it holds no blank node; prefix is a run of PN_CHARS_U and digits,
    so a prefixed label is still a valid one."""
    if "_" not in map(itemgetter(0), g._terms):
        return g

    def scoped(spelling: str) -> str:
        return f"_:{prefix}{spelling[2:]}" if spelling[0] == "_" else spelling

    return g._renamed(scoped)


def _load_graphs(paths: list[str]) -> list[Graph]:
    graphs = [parse_ntriples(_read(p)) for p in paths]
    if len(graphs) > 1:
        # A blank node label names a node only within its document (RDF 1.1
        # Semantics 5.2), so file i's `_:x` becomes `_:fi_x`; i holds no
        # `_`, so distinct (file, label) pairs stay distinct.
        graphs = [_scope_blank_nodes(g, f"f{i}_") for i, g in enumerate(graphs, start=1)]
    return graphs


def _write_output(text: str, output: Optional[str] = None) -> None:
    """Write text to the output file, or to stdout when there is none.

    A reader that has closed stdout (`triplify stats g.nt | head -1`)
    ends the writing quietly: stdout is pointed at the null device, so
    the flush at exit cannot raise, and the command keeps its exit code.
    """
    if output is not None and output != "-":
        Path(output).write_text(text, encoding="utf-8")
        return
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def cmd_convert(args: argparse.Namespace) -> int:
    try:
        doc, prefixes = parse_turtle(_read(args.mapping))
        mapping = parse_mapping(doc, prefixes, source_name=args.mapping)
    except (OSError, TriplifyError) as exc:
        return _fail(f"cannot load mapping: {exc}", 2)
    for w in mapping.warnings:
        print(f"warning: {w}", file=sys.stderr)

    named = [(Path(path).stem, path) for path in args.csv]
    for spec in args.table or ():
        name, sep, path = spec.partition("=")
        if not sep:
            return _fail(f"--table needs NAME=PATH, got {spec!r}", 2)
        named.append((name, path))
    paths: dict[str, str] = {}
    for name, path in named:
        if name in paths:
            return _fail(f"table {name!r} is given twice: {paths[name]} and {path}", 2)
        paths[name] = path
    try:
        tables = {name: load_csv(_read(path), name) for name, path in paths.items()}
    except (OSError, TriplifyError) as exc:
        return _fail(f"cannot load tables: {exc}", 2)

    diagnostics = validate_mapping(mapping, {n: set(t.columns) for n, t in tables.items()})
    for d in diagnostics:
        print(str(d), file=sys.stderr)
    if any(d.severity == "error" for d in diagnostics):
        return 1

    g, report = convert(mapping, tables)
    try:
        _write_output(serialize_ntriples(g), args.output)
        print(report.summary(), file=sys.stderr)
        if args.skipped_log is not None:
            Path(args.skipped_log).write_text(report.skipped_log(), encoding="utf-8")
    except OSError as exc:
        return _fail(f"cannot write output: {exc}", 2)
    if args.strict and report.skipped_terms:
        print(
            f"strict mode: {len(report.skipped_terms)} skipped term(s)",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        g = merge(_load_graphs(args.graphs))
    except (OSError, TriplifyError) as exc:
        return _fail(f"cannot load graph: {exc}", 2)
    try:
        if args.shapes is not None:
            shapes = load_shapes(_read(args.shapes))
        else:
            shapes = builtin_shapes()
    except (OSError, TriplifyError) as exc:
        return _fail(f"cannot load shapes: {exc}", 2)
    report = validate_graph(g, shapes)
    _write_output("".join(line + "\n" for line in report.lines()))
    return 0 if report.conforms else 1


def cmd_query(args: argparse.Namespace) -> int:
    try:
        if args.query_file is not None:
            text = _read(args.query_file)
        else:
            text = args.query
        q = parse_query(text, registry_prefixes())
    except (OSError, TriplifyError) as exc:
        return _fail(f"bad query: {exc}", 2)
    try:
        graphs = _load_graphs(args.graphs)
    except (OSError, TriplifyError) as exc:
        return _fail(f"cannot load graph: {exc}", 2)
    g = merge(graphs)
    try:
        if args.explain:
            solution, plan = explain(g, q)
        else:
            solution = execute(g, q)
    except QueryError as exc:
        return _fail(str(exc), 1)
    _write_output(solution.to_tsv())
    if args.explain:
        print(json.dumps(plan), file=sys.stderr)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    if args.n < 0:
        return _fail(f"--n must not be negative, got {args.n}", 2)
    tables = generate_synthetic(args.n, args.seed)
    outdir = Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for name, table in tables.items():
            (outdir / f"{name}.csv").write_text(write_csv(table), encoding="utf-8")
    except OSError as exc:
        return _fail(f"cannot write to {args.outdir!r}: {exc}", 2)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    try:
        g = merge(_load_graphs(args.graphs))
    except (OSError, TriplifyError) as exc:
        return _fail(f"cannot load graph: {exc}", 2)
    terms, ids, by_p = g._terms, g._ids, g._index(1)
    lines = [f"triples\t{len(g)}"]
    classes = Counter(o for _, _, o in by_p.get(ids.get(RDF_TYPE.to_ntriples()), ()))
    for spelt, cls in sorted((terms[c], c) for c in classes):
        lines.append(f"class\t{spelt}\t{classes[cls]}")
    counts = Counter()
    for p, category in predicate_categories().items():
        counts[category] += len(by_p.get(ids.get(p.to_ntriples()), ()))
    for name in _CATEGORIES:
        lines.append(f"category\t{name}\t{counts[name]}")
    _write_output("".join(line + "\n" for line in lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triplify",
        description="Convert flat CSV tables to an RDF graph with R2RML, "
        "validate the graph against shapes, and query it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="run a mapping over CSV tables, emit N-Triples")
    p.add_argument("mapping", help="R2RML mapping file (Turtle)")
    p.add_argument("csv", nargs="*", help="CSV files; table name is the file stem")
    p.add_argument("--table", action="append", metavar="NAME=PATH",
                   help="add a table under an explicit name (overrides stem)")
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when any term was skipped")
    p.add_argument("--skipped-log", metavar="PATH",
                   help="write the tab-separated skipped-term log here")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("validate", help="check one or more graphs against shapes")
    p.add_argument("graphs", nargs="+", help="N-Triples files, merged before validating")
    p.add_argument("--shapes", help="shapes file (default: bundled registry shapes)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("query", help="run a SELECT query over one or more graphs")
    p.add_argument("graphs", nargs="+", help="N-Triples files, merged before querying")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--query", help="query text")
    group.add_argument("--query-file", help="file containing the query")
    p.add_argument("--explain", action="store_true",
                   help="print the join plan to stderr as JSON: each step's pattern, "
                   "estimated matches per row and surviving rows, in the order run")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("synth", help="write deterministic synthetic registry tables")
    p.add_argument("outdir", help="directory for PATIENT.csv and TREATMENT.csv")
    p.add_argument("--n", type=int, required=True, help="number of patients")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("stats", help="print triple count, class histogram, category edges")
    p.add_argument("graphs", nargs="+", help="N-Triples files, merged")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TriplifyError as exc:
        return _fail(str(exc), 2)


if __name__ == "__main__":
    sys.exit(main())
