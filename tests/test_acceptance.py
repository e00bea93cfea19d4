"""Acceptance suite: one test per criterion, one pass line each.

Run `pytest tests/test_acceptance.py -v -s` to see the criterion lines;
every tolerance is pinned here, nothing is deferred.
"""

import itertools
import random
import resource
import sys
from collections import Counter
from time import perf_counter

from triplify import (
    Iri,
    TableSource,
    builtin_shapes,
    bundled_mapping,
    convert,
    execute,
    generate_synthetic,
    load_csv,
    merge,
    merge_and_query,
    parse_mapping,
    parse_ntriples,
    parse_query,
    parse_turtle,
    registry_prefixes,
    serialize_ntriples,
    validate_graph,
)
from triplify.errors import TypeMismatchError
from triplify.registry import predicate_categories, term_by_label
from triplify.terms import RDF_TYPE

from conftest import fixture_cases
from genutil import fuzz_graph, pooled_graph, random_query_text, random_table, simple_mapping
from oracles import brute_force_solution, solution_tuples

PATIENT_CLASS = Iri("http://purl.obolibrary.org/obo/NCIT_C16960")


def _report(n, name, detail=""):
    suffix = f" [{detail}]" if detail else ""
    print(f"[acceptance] criterion {n} ({name}): PASS{suffix}", file=sys.stderr)


def _load_case(case_dir):
    mapping_file = case_dir / "mapping.ttl"
    if mapping_file.exists():
        doc, prefixes = parse_turtle(mapping_file.read_text(encoding="utf-8"))
        m = parse_mapping(doc, prefixes, source_name=str(mapping_file))
    else:
        m = bundled_mapping()
    tables = {}
    for csv_path in case_dir.glob("*.csv"):
        tables[csv_path.stem] = load_csv(csv_path.read_text(encoding="utf-8"), csv_path.stem)
    oracle = parse_ntriples((case_dir / "expected.nt").read_text(encoding="utf-8"))
    return m, tables, oracle


def test_criterion_1_r2rml_oracle_equivalence():
    cases = fixture_cases()
    assert len(cases) >= 10, "need at least ten committed fixture pairs"
    start = perf_counter()
    for case_dir in cases:
        m, tables, oracle = _load_case(case_dir)
        g, _ = convert(m, tables)
        assert g == oracle, f"{case_dir.name}: graph differs from hand-expanded oracle"
    elapsed = perf_counter() - start
    assert elapsed < 1.0, f"fixture battery took {elapsed:.2f}s (budget 1s)"
    _report(1, "R2RML oracle equivalence", f"{len(cases)} fixtures, {elapsed:.2f}s")


def test_criterion_2_ntriples_round_trip():
    rng = random.Random(20260808)
    total = 0
    for i in range(1000):
        g = fuzz_graph(rng, 1000)
        total += len(g)
        again = parse_ntriples(serialize_ntriples(g))
        assert again == g, f"round-trip failed on graph {i} ({len(g)} triples)"
    _report(2, "serialization round-trip", f"1000 graphs, {total} triples")


def test_criterion_3_patient_centric_structure():
    start = perf_counter()
    tables = generate_synthetic(50, seed=1)
    g, conv_report = convert(bundled_mapping(), tables)
    assert not conv_report.skipped_terms

    report = validate_graph(g, builtin_shapes())
    assert report.conforms, report.lines()[:5]

    patients = {t.s for t in g.match(None, RDF_TYPE, PATIENT_CLASS)}
    assert len(patients) == 50
    categories = predicate_categories()
    for p in sorted(patients, key=lambda t: t.to_ntriples()):
        cats = {categories.get(t.p) for t in g.match(p, None, None)}
        assert {"demographic", "tumour", "treatment"} <= cats, f"{p} lacks a category edge"

    treatment = term_by_label("has treatment").iri
    per_patient = Counter(t.s for t in g.match(None, treatment, None))
    assert max(per_patient.values()) >= 2, "no patient carries two treatment instances"

    elapsed = perf_counter() - start
    assert elapsed < 5.0, f"pipeline took {elapsed:.2f}s (budget 5s)"
    _report(3, "patient-centric graph reproduction", f"{len(g)} triples, {elapsed:.2f}s")


def test_criterion_4_query_brute_force_oracle():
    rng = random.Random(97531)
    permutation_checks = 0
    for case in range(200):
        g = pooled_graph(rng, 200)
        q = parse_query(random_query_text(rng))
        try:
            got = solution_tuples(execute(g, q))
            engine_raised = False
        except TypeMismatchError:
            engine_raised = True
        try:
            want = brute_force_solution(g, q)
            oracle_raised = False
        except TypeMismatchError:
            oracle_raised = True
        assert engine_raised == oracle_raised, f"case {case}: raise behavior differs"
        if engine_raised:
            continue
        assert got == want, f"case {case}: engine differs from brute force"
        for perm in itertools.permutations(q.patterns):
            q2 = type(q)(q.variables, q.count_var, tuple(perm), q.filters)
            assert solution_tuples(execute(g, q2)) == got, f"case {case}: order-sensitive"
            permutation_checks += 1
    _report(4, "query oracle equivalence", f"200 cases, {permutation_checks} permutations")


def test_criterion_5_order_and_dedup_invariance():
    rng = random.Random(5150)
    for case in range(50):
        table = random_table(rng)
        m = simple_mapping()
        base, _ = convert(m, {"T": table})
        base_bytes = serialize_ntriples(base)

        shuffled = table.rows[:]
        rng.shuffle(shuffled)
        g_rows, _ = convert(m, {"T": TableSource("T", table.columns, shuffled)})
        assert serialize_ntriples(g_rows) == base_bytes, f"case {case}: row order leaked"

        m2 = simple_mapping()
        m2.triples_maps.reverse()
        g_maps, _ = convert(m2, {"T": table})
        assert serialize_ntriples(g_maps) == base_bytes, f"case {case}: map order leaked"

        doubled = table.rows + [dict(r) for r in table.rows]
        rng.shuffle(doubled)
        g_dup, _ = convert(m, {"T": TableSource("T", table.columns, doubled)})
        assert serialize_ntriples(g_dup) == base_bytes, f"case {case}: duplication leaked"
    _report(5, "order and duplication invariance", "50 tables x 3 transformations")


def _centre(prefix, n, seed):
    tables = generate_synthetic(n, seed)
    for row in tables["PATIENT"].rows:
        row["ID"] = prefix + row["ID"]
    for row in tables["TREATMENT"].rows:
        row["ID"] = prefix + row["ID"]
        row["PATIENT_ID"] = prefix + row["PATIENT_ID"]
    return tables


def test_criterion_6_unified_query_over_merged_centres():
    centre_a = _centre("A", 12, seed=21)
    centre_b = _centre("B", 9, seed=22)
    m = bundled_mapping()
    g_a, _ = convert(m, centre_a)
    g_b, _ = convert(m, centre_b)

    concatenated = {
        name: TableSource(
            name, centre_a[name].columns, centre_a[name].rows + centre_b[name].rows
        )
        for name in ("PATIENT", "TREATMENT")
    }
    direct, _ = convert(m, concatenated)
    assert merge([g_a, g_b]) == direct

    prefixes = registry_prefixes()
    queries = [
        "SELECT (COUNT(*) AS ?n) WHERE { ?p rdf:type ncit:C16960 . }",
        "SELECT ?p WHERE { ?p rdf:type ncit:C16960 . ?p roo:P100027 ?a . FILTER(?a >= 65) }",
        "SELECT ?p ?t WHERE { ?p roo:P100039 ?t . ?t roo:P100042 ncit:C15402 . }",
    ]
    for text in queries:
        q = parse_query(text, prefixes)
        assert merge_and_query([g_a, g_b], q).rows == execute(direct, q).rows

    q_count = parse_query(queries[0], prefixes)
    (row,) = merge_and_query([g_a, g_b], q_count).rows
    assert row["n"].lexical == "21"  # 12 + 9 disjoint patients
    _report(6, "unified query across centres", "21 patients, 3 queries")


def test_criterion_7_throughput():
    tables = generate_synthetic(70_000, seed=1)
    rows = len(tables["PATIENT"].rows) + len(tables["TREATMENT"].rows)
    assert rows >= 100_000

    start = perf_counter()
    g, report = convert(bundled_mapping(), tables)
    elapsed = perf_counter() - start

    assert len(g) >= 900_000, f"only {len(g)} triples; expected about a million"
    assert report.triples_emitted == len(g)
    assert elapsed < 60.0, f"conversion took {elapsed:.1f}s (budget 60s)"
    peak_gib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1024**2)
    assert peak_gib < 4.0, f"peak memory {peak_gib:.2f} GiB (budget 4 GiB)"
    _report(
        7,
        "conversion throughput",
        f"{rows} rows -> {len(g)} triples in {elapsed:.1f}s, peak {peak_gib:.2f} GiB",
    )
