"""Vocabulary, shapes, graph validation, and the synthetic generator."""

import random

import pytest

from triplify import (
    BlankNode,
    Graph,
    Iri,
    Literal,
    Triple,
    builtin_shapes,
    builtin_vocabulary,
    bundled_mapping,
    convert,
    generate_synthetic,
    load_shapes,
    load_vocabulary,
    parse_ntriples,
    registry_prefixes,
    serialize_ntriples,
    validate_graph,
    write_csv,
)
from triplify.errors import TriplifyError
from triplify.r2rml import RefObjectMap
from triplify.registry import Shape, ShapeConstraint, term_by_label
from triplify.terms import RDF_TYPE, XSD_DATE

from conftest import fixture_cases
from genutil import dirty_graph, mutated_shapes_texts, pooled_graph
from oracles import validate_every_pair

PATIENT_CLASS = Iri("http://purl.obolibrary.org/obo/NCIT_C16960")


def synthetic_graph(n=20, seed=7):
    tables = generate_synthetic(n, seed)
    g, report = convert(bundled_mapping(), tables)
    assert not report.skipped_terms
    return g


class TestVocabulary:
    def test_neoplasm_resolves(self):
        term = term_by_label("Neoplasm")
        assert term.curie == "ncit:C3262"
        assert term.iri == Iri("http://purl.obolibrary.org/obo/NCIT_C3262")

    def test_first_course_date_is_treatment(self):
        term = term_by_label("has date of first radiotherapy course")
        assert term.category == "treatment"

    def test_biological_sex_is_demographic(self):
        term = term_by_label("has biological sex")
        assert term.category == "demographic"

    def test_required_terms_present(self):
        labels = {t.label for t in builtin_vocabulary()}
        for needed in (
            "Patient",
            "has age",
            "has biological sex",
            "has disease",
            "Neoplasm",
            "has tumour site",
            "has treatment",
            "has date of first radiotherapy course",
            "has radiotherapy modality",
            "Proton Beam Radiation Therapy",
            "Photon Beam Radiation Therapy",
        ):
            assert needed in labels

    def test_category_partition(self):
        seen = {}
        for term in builtin_vocabulary():
            if term.role != "predicate" or term.category == "core":
                continue
            assert term.category in ("demographic", "tumour", "treatment")
            assert seen.setdefault(term.iri, term.category) == term.category

    def test_closure_over_mapping_and_shapes(self):
        vocab_iris = {t.iri for t in builtin_vocabulary()}
        for tm in bundled_mapping().triples_maps:
            for pom in tm.predicate_object_maps:
                assert pom.predicate.constant in vocab_iris
            for cls in tm.subject_classes:
                assert cls in vocab_iris
        for shape in builtin_shapes():
            assert shape.target_class in vocab_iris
            for c in shape.constraints:
                assert c.predicate in vocab_iris

    def test_loader_rejects_bad_lines(self):
        with pytest.raises(Exception):
            load_vocabulary("ncit:C1\tonly three\tfields\n")

    @pytest.mark.parametrize(
        "line, problem",
        [
            ("ncit:C1\tneoplasm\tthing\ttumour", "bad role 'thing'"),
            ("ncit:C1\tneoplasm\tclass\tgenomic", "bad category 'genomic'"),
            ("ncit:C1\t \tclass\ttumour", "empty label"),
        ],
        ids=["role", "category", "label"],
    )
    def test_loader_names_the_bad_field(self, line, problem):
        with pytest.raises(TriplifyError) as err:
            load_vocabulary("# comment\n" + line + "\n")
        assert str(err.value) == f"vocabulary line 2: {problem}"

    def test_loader_names_a_curie_without_colon(self):
        with pytest.raises(TriplifyError, match="^vocabulary line 1: .*'C1'"):
            load_vocabulary("C1\tneoplasm\tclass\ttumour\n")


class TestTsvLines:
    """Both TSV readers split lines as the N-Triples reader does."""

    VOCABULARY = "ncit:C1\tneoplasm\tclass\ttumour"
    SHAPE = "ncit:C16960\troo:P100027\tliteral(xsd:integer)\t1\t*"

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_a_bom_is_dropped_and_every_line_end_counts(self, eol):
        (term,) = load_vocabulary(f"\ufeff# vocabulary{eol}{self.VOCABULARY}{eol}")
        assert term.label == "neoplasm"
        (shape,) = load_shapes(f"\ufeff# shapes{eol}{self.SHAPE}{eol}")
        assert shape.target_class == PATIENT_CLASS
        with pytest.raises(TriplifyError, match="^shapes line 3: "):
            load_shapes(f"\ufeff# shapes{eol}{self.SHAPE}{eol}{self.SHAPE}\tx{eol}")
        with pytest.raises(TriplifyError, match="^vocabulary line 2: "):
            load_vocabulary(f"{self.VOCABULARY}{eol}ncit:C2\tx\tclass{eol}")

    # str.splitlines() would end a line at each of these
    @pytest.mark.parametrize("ch", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1e"])
    def test_a_label_holds_what_is_no_line_end(self, ch):
        (term,) = load_vocabulary(f"ncit:C1\tneo{ch}plasm\tclass\ttumour\n")
        assert term.label == f"neo{ch}plasm"


class TestShapes:
    def test_treatment_cardinality_unbounded(self):
        (patient_shape,) = [s for s in builtin_shapes() if s.target_class == PATIENT_CLASS]
        treatment = term_by_label("has treatment").iri
        (c,) = [c for c in patient_shape.constraints if c.predicate == treatment]
        assert c.min_count == 1 and c.max_count is None

    def test_age_exactly_one(self):
        (patient_shape,) = [s for s in builtin_shapes() if s.target_class == PATIENT_CLASS]
        age = term_by_label("has age").iri
        (c,) = [c for c in patient_shape.constraints if c.predicate == age]
        assert c.min_count == 1 and c.max_count == 1

    def test_shape_predicates_in_vocabulary(self):
        vocab_iris = {t.iri for t in builtin_vocabulary() if t.role == "predicate"}
        for shape in builtin_shapes():
            for c in shape.constraints:
                assert c.predicate in vocab_iris

    @pytest.mark.parametrize(
        "line",
        [
            "ncit:C16960\troo:P100027\tliteral(xsd:integer)\tone\t*",
            "ncit:C16960\troo:P100027\tliteral(xsd:integer)\t1\t1.5",
            "C16960\troo:P100027\tliteral(xsd:integer)\t1\t*",
            "ncit:C16960\tP100027\tliteral(xsd:integer)\t1\t*",
            "ncit:C16960\troo:P100027\tliteral(integer)\t1\t*",
            "ncit:C16960\troo:P100027\tliteral(xsd:integer)\t-3\t*",
            "ncit:C16960\troo:P100027\tliteral(xsd:integer)\t-2\t-1",
            "ncit:C16960\troo:P100027\tliteral(xsd:integer)\t1_0\t*",
            "ncit:C16960\troo:P100027\tliteral(xsd:integer)\t\u0661\t*",
        ],
    )
    def test_loader_names_the_bad_line(self, line):
        with pytest.raises(TriplifyError, match="^shapes line 2: "):
            load_shapes("# comment\n" + line + "\n")

    def test_loader_round_trip(self):
        text = "ncit:C16960\troo:P100027\tliteral(xsd:integer)\t1\t*\n"
        (shape,) = load_shapes(text)
        (c,) = shape.constraints
        assert c.max_count is None and c.kind == "literal"
        # a count of any length has its exact value
        huge = "9" * 5000
        (shape,) = load_shapes(text.replace("\t1\t*", f"\t0\t{huge}"))
        (c,) = shape.constraints
        assert (c.min_count, c.max_count) == (0, 10**5000 - 1)
        (shape,) = load_shapes(text.replace("\t1\t*", f"\t{huge}\t*"))
        focus = Graph([Triple(Iri("http://ex.org/p"), RDF_TYPE, shape.target_class)])
        (v,) = validate_graph(focus, [shape]).violations
        assert v.message == f"expected at least {huge} conforming value(s), found 0"


class TestValidateGraph:
    def test_synthetic_graph_conforms(self):
        report = validate_graph(synthetic_graph(), builtin_shapes())
        assert report.conforms
        assert report.violations == []

    def test_missing_sex_edge_is_one_violation(self):
        g = synthetic_graph()
        sex = term_by_label("has biological sex").iri
        victim = g.match(None, sex, None)[0]
        smaller = Graph(t for t in g if t != victim)
        report = validate_graph(smaller, builtin_shapes())
        assert len(report.violations) == 1
        v = report.violations[0]
        assert v.focus == victim.s and v.observed_count == 0

    def test_many_treatments_allowed(self):
        g = synthetic_graph(n=40, seed=3)
        treatment = term_by_label("has treatment").iri
        by_patient = {}
        for t in g.match(None, treatment, None):
            by_patient.setdefault(t.s, []).append(t.o)
        assert any(len(v) >= 3 for v in by_patient.values())
        assert validate_graph(g, builtin_shapes()).conforms

    def test_soundness_each_required_edge(self):
        # removing any exactly-one edge must produce exactly one violation
        g = synthetic_graph(n=5, seed=11)
        for label in (
            "has age",
            "has biological sex",
            "has date of first radiotherapy course",
            "has radiotherapy modality",
        ):
            pred = term_by_label(label).iri
            victim = g.match(None, pred, None)[0]
            smaller = Graph(t for t in g if t != victim)
            report = validate_graph(smaller, builtin_shapes())
            assert len(report.violations) == 1, label

    def test_wrong_object_kind_reported(self):
        g = synthetic_graph(n=2, seed=2)
        age = term_by_label("has age").iri
        victim = g.match(None, age, None)[0]
        mangled = Graph(t for t in g if t != victim)
        mangled.add(Triple(victim.s, age, Iri("http://ex.org/not-a-literal")))
        report = validate_graph(mangled, builtin_shapes())
        # one violation for the offending term, one for the broken cardinality
        assert len(report.violations) == 2

    def test_offending_objects_reported_in_canonical_order(self):
        g = synthetic_graph(n=2, seed=2)
        age = term_by_label("has age").iri
        sex = term_by_label("has biological sex").iri
        victim = g.match(None, age, None)[0]
        focus = victim.s
        mangled = Graph(t for t in g if t != victim)
        bad_ages = [Iri("http://ex.org/c"), Literal("x"), Iri("http://ex.org/a"), BlankNode("b")]
        bad_sexes = [Iri("http://ex.org/z"), Iri("http://ex.org/y")]
        for o in bad_ages:
            mangled.add(Triple(focus, age, o))
        for o in bad_sexes:
            mangled.add(Triple(focus, sex, o))
        report = validate_graph(mangled, builtin_shapes())
        by_predicate = {}
        for v in report.violations:
            assert v.focus == focus
            by_predicate.setdefault(v.predicate, []).append(v)
        ages = by_predicate[age]
        canonical = sorted(bad_ages, key=lambda o: o.to_ntriples())
        assert [v.offending for v in ages] == canonical + [None]
        assert ages[-1].observed_count == 0
        assert [v.offending for v in by_predicate[sex]] == sorted(
            bad_sexes, key=lambda o: o.to_ntriples()
        )


    def test_only_the_predicate_index_is_built(self):
        g = parse_ntriples(serialize_ntriples(dirty_graph(300, 5)))
        assert not g._indexes
        assert not validate_graph(g, builtin_shapes()).conforms
        assert set(g._indexes) == {1}

    def test_too_many_conforming_values_is_one_violation(self):
        g = synthetic_graph(n=2, seed=2)
        age = term_by_label("has age").iri
        victim = g.match(None, age, None)[0]
        focus = victim.s
        g.add(Triple(focus, age, Literal("150", victim.o.datatype)))
        report = validate_graph(g, builtin_shapes())
        (v,) = report.violations
        assert (v.focus, v.predicate, v.observed_count, v.offending) == (focus, age, 2, None)
        assert v.message == "expected at most 1 conforming value(s), found 2"


def shapes_over(g):
    """A shape for every class of g that constrains every predicate of g
    to each class of g, and to each literal datatype of g."""

    def canonical(terms):
        return sorted(terms, key=lambda t: t.to_ntriples())

    classes = canonical({t.o for t in g.match(None, RDF_TYPE, None) if isinstance(t.o, Iri)})
    predicates = canonical({t.p for t in g})
    datatypes = canonical({t.o.datatype for t in g if isinstance(t.o, Literal)})
    constraints = tuple(
        [ShapeConstraint(p, "class", c, 1, 1) for p in predicates for c in classes]
        + [ShapeConstraint(p, "literal", d, 0, 1) for p in predicates for d in datatypes]
    )
    return [Shape(c, constraints) for c in classes]


HAND_MADE_SHAPES = {
    "rdf-type-constrained": load_shapes(
        "ncit:C16960\trdf:type\tclass(ncit:C16960)\t1\t1\n"
        "ncit:C15313\trdf:type\tliteral(xsd:string)\t0\t*\n"
    ),
    "shared-predicate": load_shapes(
        "ncit:C16960\troo:P100027\tliteral(xsd:integer)\t1\t1\n"
        "ncit:C15313\troo:P100027\tliteral(xsd:integer)\t0\t1\n"
        "ncit:C15313\troo:P100041\tliteral(xsd:date)\t1\t1\n"
        "ncit:C3262\troo:P100041\tliteral(xsd:date)\t1\t*\n"
    )
    + builtin_shapes() * 2,
    "target-is-constraint-class": load_shapes(
        "ncit:C16960\troo:P100039\tclass(ncit:C16960)\t0\t*\n"
        "ncit:C15313\troo:P100042\tclass(ncit:C15313)\t1\t1\n"
    ),
    "class-without-members": load_shapes(
        "ncit:C99999\troo:P100027\tliteral(xsd:integer)\t1\t1\n"
        "ncit:C16960\troo:P100018\tclass(ncit:C99999)\t1\t1\n"
    ),
    "empty": [],
    # a count of 0 * is never out of bounds: only bad objects are reported
    "zero-or-more": load_shapes(
        "ncit:C16960\troo:P100027\tliteral(xsd:integer)\t0\t*\n"
        "ncit:C16960\troo:P100018\tclass(ncit:C28421)\t0\t*\n"
    ),
    # max 0: every focus node that holds a value is out of bounds
    "max-zero": load_shapes("ncit:C16960\troo:P100018\tclass(ncit:C28421)\t0\t0\n"),
    "min-above-every-count": load_shapes(
        "ncit:C15313\troo:P100041\tliteral(xsd:date)\t5\t*\n"
        "ncit:C16960\troo:P100039\tclass(ncit:C15313)\t4\t9\n"
    ),
    # patients hold a bad age, but only treatments are checked for one
    "bad-object-outside-target": load_shapes(
        "ncit:C15313\troo:P100027\tliteral(xsd:integer)\t0\t*\n"
        "ncit:C15313\troo:P100042\tclass(roo:C100077)\t1\t1\n"
    ),
    # the patient with an IRI age besides its own has two values, in
    # bounds, but one conforming value, below the min
    "bad-objects-drop-below-min": load_shapes(
        "ncit:C16960\troo:P100027\tliteral(xsd:integer)\t2\t2\n"
    ),
    # every bound 0 0: every focus node that holds a value is out of
    # bounds on each predicate it holds
    "every-focus-flagged": [
        Shape(
            s.target_class,
            tuple(ShapeConstraint(c.predicate, c.kind, c.kind_iri, 0, 0) for c in s.constraints),
        )
        for s in builtin_shapes()
    ],
    "one-predicate-two-kinds": load_shapes(
        "ncit:C16960\troo:P100039\tclass(ncit:C15313)\t1\t*\n"
    )
    + load_shapes("ncit:C16960\troo:P100039\tliteral(xsd:string)\t0\t*\n"),
}


def assert_same_report(g, shapes):
    got, want = validate_graph(g, shapes), validate_every_pair(g, shapes)
    assert got.violations == want.violations
    assert got.lines() == want.lines()
    return got


class TestValidateAgainstEveryPair:
    """validate_graph reports what the per-pair reference reports, field
    by field and in the same order."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_dirty_synthetic_graph(self, seed):
        report = assert_same_report(dirty_graph(300, seed), builtin_shapes())
        messages = " ".join(report.lines())
        for flaw in ("lacks required type", "is not a literal of datatype", "found 0"):
            assert flaw in messages

    @pytest.mark.parametrize("case", fixture_cases(), ids=lambda p: p.name)
    def test_fixture_graph(self, case):
        g = parse_ntriples((case / "expected.nt").read_text(encoding="utf-8"))
        assert_same_report(g, builtin_shapes())
        assert_same_report(g, shapes_over(g))

    def test_fuzzed_shapes(self):
        g = dirty_graph(30, 4)
        distinct = set()
        for text in mutated_shapes_texts():
            try:
                shapes = load_shapes(text)
            except TriplifyError:
                continue
            if tuple(shapes) not in distinct:
                distinct.add(tuple(shapes))
                assert_same_report(g, shapes)
        assert len(distinct) > 100

    @pytest.mark.parametrize("name", sorted(HAND_MADE_SHAPES))
    def test_hand_made_shapes(self, name):
        g = dirty_graph(300, 5)
        report = assert_same_report(g, HAND_MADE_SHAPES[name])
        assert report.conforms == (name == "empty")

    def test_bad_objects_drop_a_focus_below_its_min(self):
        report = validate_graph(dirty_graph(300, 5), HAND_MADE_SHAPES["bad-objects-drop-below-min"])
        (offended,) = [v for v in report.violations if v.offending is not None]
        counted = [v.observed_count for v in report.violations if v.focus == offended.focus]
        assert counted == [None, 1]

    @pytest.mark.parametrize("seed", range(40))
    def test_random_typed_graph(self, seed):
        rng = random.Random(seed)
        g = pooled_graph(rng, 40)
        nodes = sorted({t.s for t in g} | {t.o for t in g if isinstance(t.o, Iri)}, key=str)
        for _ in range(rng.randint(0, 12)):
            if nodes:
                g.add(Triple(rng.choice(nodes), RDF_TYPE, rng.choice(nodes[:3])))
        shapes = shapes_over(g)
        assert_same_report(g, shapes)
        bounded = []
        for shape in shapes:
            constraints = []
            for c in shape.constraints:
                lo = rng.randint(0, 3)
                hi = rng.choice([None, lo, lo + rng.randint(0, 2)])
                constraints.append(ShapeConstraint(c.predicate, c.kind, c.kind_iri, lo, hi))
            bounded.append(Shape(shape.target_class, tuple(constraints)))
        assert_same_report(g, bounded)


class TestGenerateSynthetic:
    def test_zero_patients(self):
        tables = generate_synthetic(0, 1)
        assert tables["PATIENT"].rows == [] and tables["TREATMENT"].rows == []

    def test_deterministic_bytes(self):
        a = generate_synthetic(25, 9)
        b = generate_synthetic(25, 9)
        for name in ("PATIENT", "TREATMENT"):
            assert write_csv(a[name]) == write_csv(b[name])

    def test_row_shapes_and_ranges(self):
        tables = generate_synthetic(30, 4)
        for row in tables["PATIENT"].rows:
            assert 18 <= int(row["AGE"]) <= 90
            assert row["SEX"] in ("C16576", "C20197")
        counts = {}
        for row in tables["TREATMENT"].rows:
            counts[row["PATIENT_ID"]] = counts.get(row["PATIENT_ID"], 0) + 1
            assert row["MODALITY"] in ("proton", "photon")
            from triplify import Literal

            Literal(row["RT_START_DATE"], XSD_DATE)  # valid lexical or raises
        assert set(counts.values()) <= {1, 2, 3}
        assert set(counts) == {str(i) for i in range(1, 31)}

    def test_full_pipeline_validates(self):
        report = validate_graph(synthetic_graph(n=50, seed=1), builtin_shapes())
        assert report.conforms

    def test_patient_centrality(self):
        # every non-patient subject is reachable from a patient in <=2 hops
        g = synthetic_graph(n=15, seed=5)
        patients = {t.s for t in g.match(None, RDF_TYPE, PATIENT_CLASS)}
        reachable = set(patients)
        frontier = set(patients)
        for _ in range(2):
            nxt = set()
            for node in frontier:
                for t in g.match(node, None, None):
                    nxt.add(t.o)
            reachable |= nxt
            frontier = nxt
        subjects = {t.s for t in g}
        assert subjects <= reachable


class TestBundledMapping:
    def test_parses_clean(self):
        m = bundled_mapping()
        assert m.warnings == []
        assert len(m.triples_maps) == 6

    def test_join_links_patient_to_treatment(self):
        m = bundled_mapping()
        roms = [
            pom.object
            for tm in m.triples_maps
            for pom in tm.predicate_object_maps
            if isinstance(pom.object, RefObjectMap)
        ]
        (rom,) = roms
        assert rom.joins == (("ID", "PATIENT_ID"),)
        assert rom.parent.logical_table == "TREATMENT"

    def test_prefixes_cover_registry_namespaces(self):
        p = registry_prefixes()
        assert p.expand("ncit:C3262").value.startswith("http://purl.obolibrary.org")
        assert p.expand("roo:P100018").value.startswith("http://www.cancerdata.org")

    def test_validates_clean_against_synthetic_headers(self):
        from triplify import validate_mapping

        tables = generate_synthetic(1, seed=0)
        columns = {name: set(t.columns) for name, t in tables.items()}
        diags = validate_mapping(bundled_mapping(), columns)
        assert not [d for d in diags if d.severity == "error"]
