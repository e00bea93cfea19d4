"""The conversion engine against hand-expanded expectations."""

import importlib
import random
import re

import pytest

from triplify import (
    BlankNode,
    Graph,
    Iri,
    Literal,
    PrefixMap,
    TableSource,
    Triple,
    bundled_mapping,
    convert,
    generate_synthetic,
    iri_safe_encode,
    load_csv,
    merge,
    parse_mapping,
    parse_ntriples,
    parse_template,
    parse_turtle,
    serialize_ntriples,
)
from triplify.convert import ConversionReport
from triplify.errors import CsvError, MappingError, TriplifyError, ValidationFailedError
from triplify.r2rml import (
    MappingDocument,
    PredicateObjectMap,
    RefObjectMap,
    TermMap,
    TriplesMap,
    validate_mapping,
)
from triplify.terms import RDF_TYPE, XSD_DATE, XSD_DECIMAL, XSD_INTEGER, check_iri

from conftest import fixture_case, fixture_cases
from genutil import random_table, simple_mapping
from oracles import column_every_row, convert_every_row, make_term

EX = "http://ex.org/"
# the module; the package's `convert` is the function
convert_module = importlib.import_module("triplify.convert")


class TestIriSafeEncode:
    def test_space(self):
        assert iri_safe_encode("a b") == "a%20b"

    def test_reserved_ascii(self):
        assert iri_safe_encode("x/y") == "x%2Fy"
        assert iri_safe_encode("100%") == "100%25"
        assert iri_safe_encode("a:b?c") == "a%3Ab%3Fc"

    def test_iunreserved_kept(self):
        assert iri_safe_encode("AZaz09-._~") == "AZaz09-._~"

    def test_ucschar_kept_ascii_encoded(self):
        # é is in ucschar, so it stays; multibyte UTF-8 applies otherwise
        assert iri_safe_encode("café") == "café"

    def test_uppercase_hex(self):
        assert iri_safe_encode("<") == "%3C"

    @pytest.mark.parametrize("ch", ["\ud7ff", "\uffef", "\U0001fffd", "\U000e1000"])
    def test_ucschar_range_ends_kept(self, ch):
        assert iri_safe_encode("a" + ch) == "a" + ch

    @pytest.mark.parametrize("ch", ["\ue000", "\ufdd0", "\U0001fffe", "\U000efffe"])
    def test_outside_ucschar_encoded(self, ch):
        expected = "".join("%%%02X" % b for b in ch.encode("utf-8"))
        assert iri_safe_encode(ch + "a") == expected + "a"

    @pytest.mark.parametrize("text", ["\ud800", "a b\udfff"])
    def test_lone_surrogate_is_a_triplify_error(self, text):
        with pytest.raises(TriplifyError, match="surrogate"):
            iri_safe_encode(text)


def made(tm, row):
    """The term convert makes by tm from the one row, or its skip's reason:
    tm is the object of the one map of a document over T, whose columns
    are the row's, under a constant subject and predicate."""
    pom = PredicateObjectMap(TermMap(term_kind="IRI", constant=Iri(EX + "p")), tm)
    sm = TermMap(term_kind="IRI", constant=Iri(EX + "s"))
    tmap = TriplesMap(Iri(EX + "M"), "T", sm, predicate_object_maps=[pom])
    m = MappingDocument([tmap], PrefixMap())
    g, report = convert(m, {"T": TableSource("T", tuple(row), [row])})
    if report.skipped_terms:
        (skip,) = report.skipped_terms
        return skip.reason
    (t,) = g
    return t.o


def assert_fails_validation(m, tables, message):
    """validate_mapping reports message as an error of m over tables, and
    convert refuses to run m, naming it."""
    available = {name: set(t.columns) for name, t in tables.items()}
    errors = [d.message for d in validate_mapping(m, available) if d.severity == "error"]
    assert message in errors
    with pytest.raises(ValidationFailedError, match=re.escape(message)):
        convert(m, tables)


def map_by_id(m, term):
    """The triples map of m whose node is term."""
    (tm,) = [tm for tm in m.triples_maps if tm.id == term]
    return tm


class TestExpandTemplate:
    """A template filled from a row, as a one-row conversion fills it."""

    def test_basic(self):
        tm = TermMap(term_kind="IRI", template=parse_template("http://e.org/patient/{ID}"))
        assert made(tm, {"ID": "7"}) == Iri("http://e.org/patient/7")

    def test_iri_kind_percent_encodes(self):
        tm = TermMap(term_kind="IRI", template=parse_template("http://e.org/patient/{ID}"))
        assert made(tm, {"ID": "a b"}) == Iri("http://e.org/patient/a%20b")

    def test_literal_kind_copies_verbatim(self):
        tm = TermMap(term_kind="Literal", template=parse_template("{A}-{B}"))
        assert made(tm, {"A": "a b", "B": "c/d"}) == Literal("a b-c/d")

    def test_null_propagates(self):
        tm = TermMap(term_kind="IRI", template=parse_template("http://e.org/patient/{ID}"))
        assert made(tm, {"ID": None}) == "object: NULL input"

    def test_missing_column(self):
        tm = TermMap(term_kind="IRI", template=parse_template("{NOPE}"))
        with pytest.raises(ValidationFailedError, match="column 'NOPE' absent from table 'T'"):
            made(tm, {"ID": "1"})


class TestGenerateTerm:
    """The term a term map makes from one row, as a one-row conversion makes it."""

    def test_integer_column(self):
        tm = TermMap(term_kind="Literal", column="AGE", datatype=XSD_INTEGER)
        assert made(tm, {"AGE": "63"}) == Literal("63", XSD_INTEGER)

    def test_impossible_date_rejected(self):
        tm = TermMap(term_kind="Literal", column="RT_START", datatype=XSD_DATE)
        assert made(tm, {"RT_START": "2020-02-30"}) == (
            "object: '2020-02-30' is not a valid lexical form for <%s>" % XSD_DATE.value
        )

    def test_constant_ignores_row(self):
        patient = Iri("http://purl.obolibrary.org/obo/NCIT_C16960")
        tm = TermMap(term_kind="IRI", constant=patient)
        assert made(tm, {"anything": None}) == patient

    def test_null_column_absent(self):
        tm = TermMap(term_kind="Literal", column="AGE")
        assert made(tm, {"AGE": None}) == "object: NULL input"

    def test_iri_from_column_validated(self):
        tm = TermMap(term_kind="IRI", column="URL")
        assert made(tm, {"URL": "http://e.org/x"}) == Iri("http://e.org/x")
        assert made(tm, {"URL": "no-scheme"}) == "object: not an absolute IRI: 'no-scheme'"

    def test_blank_node_label_sanitized(self):
        tm = TermMap(term_kind="BlankNode", column="ID")
        assert made(tm, {"ID": "a b/c"}) == BlankNode("a_20b_2Fc")

    def test_blank_node_label_injective(self):
        tm = TermMap(term_kind="BlankNode", column="ID")
        cells = ["a-b", "a_b", "a.b", "\u00e9", "\u00fc"]
        labels = [made(tm, {"ID": cell}).label for cell in cells]
        assert labels == ["a_2Db", "a_5Fb", "a_2Eb", "_C3A9", "_C3BC"]

    def test_blank_node_label_lone_surrogate_is_a_triplify_error(self):
        tm = TermMap(term_kind="BlankNode", column="ID")
        assert made(tm, {"ID": "a\ud800"}) == "object: cannot encode lone surrogate '\\ud800'"

    def test_random_maps_and_cells_as_the_reference(self):
        # NULLs, lone surrogates, cells that need encoding and bad lexical
        # forms, under every shape the speller compiles, and rows that lack
        # a column, which fail validation
        rng = random.Random(28)
        for _ in range(200):
            (tm,) = speller_mapping(rng).triples_maps
            maps = [tm.subject_map, TermMap(term_kind="Literal")]
            maps += [pom.object for pom in tm.predicate_object_maps]
            row = {"A": random_cell(rng), "B": random_cell(rng)}
            if rng.random() < 0.2:
                del row[rng.choice("AB")]
            for term_map in maps:
                missing = [c for c in term_map.source_columns() if c not in row]
                if missing:
                    with pytest.raises(ValidationFailedError, match=f"column {missing[0]!r}"):
                        made(term_map, row)
                    continue
                try:
                    want = make_term(term_map, row)
                except TriplifyError as exc:
                    want = f"object: {exc}"
                want = "object: NULL input" if want is None else want
                assert made(term_map, row) == want, (term_map, row)


CANDIDATE_MAPPING = """
@prefix rr:  <http://www.w3.org/ns/r2rml#> .
@prefix ex:  <http://ex.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .

ex:PatientMap
  rr:logicalTable [ rr:tableName "PATIENT" ] ;
  rr:subjectMap [ rr:template "http://ex.org/patient/{ID}" ; rr:class ex:Patient ] ;
  rr:predicateObjectMap [
    rr:predicate ex:hasAge ;
    rr:objectMap [ rr:column "AGE" ; rr:datatype xsd:integer ]
  ] .
"""


def candidate_mapping():
    doc, prefixes = parse_turtle(CANDIDATE_MAPPING)
    return parse_mapping(doc, prefixes)


class TestApplyTriplesMap:
    """One triples map applied to its table, by converting a one-map document."""

    def test_hand_expansion_oracle(self):
        # expected graph written down before the engine existed
        table = TableSource(
            "PATIENT", ("ID", "AGE"), [{"ID": "1", "AGE": "63"}, {"ID": "2", "AGE": None}]
        )
        g, report = convert(candidate_mapping(), {"PATIENT": table})
        expected = Graph(
            [
                Triple(Iri(EX + "patient/1"), RDF_TYPE, Iri(EX + "Patient")),
                Triple(Iri(EX + "patient/1"), Iri(EX + "hasAge"), Literal("63", XSD_INTEGER)),
                Triple(Iri(EX + "patient/2"), RDF_TYPE, Iri(EX + "Patient")),
            ]
        )
        assert g == expected
        assert len(report.skipped_terms) == 1
        skip = report.skipped_terms[0]
        assert skip.row == 2 and skip.column == "AGE"

    def test_duplicate_rows_collapse(self):
        rows = [{"ID": "1", "AGE": "63"}]
        single = TableSource("PATIENT", ("ID", "AGE"), rows)
        double = TableSource("PATIENT", ("ID", "AGE"), rows + rows)
        g1, _ = convert(candidate_mapping(), {"PATIENT": single})
        g2, _ = convert(candidate_mapping(), {"PATIENT": double})
        assert g1 == g2

    def test_join_emits_one_edge_per_matching_parent_row(self):
        text = """
        @prefix rr: <http://www.w3.org/ns/r2rml#> .
        @prefix ex: <http://ex.org/> .
        ex:PatientMap
          rr:logicalTable [ rr:tableName "PATIENT" ] ;
          rr:subjectMap [ rr:template "http://ex.org/patient/{ID}" ] ;
          rr:predicateObjectMap [
            rr:predicate ex:hasTreatment ;
            rr:objectMap [
              rr:parentTriplesMap ex:TreatmentMap ;
              rr:joinCondition [ rr:child "ID" ; rr:parent "PATIENT_ID" ]
            ]
          ] .
        ex:TreatmentMap
          rr:logicalTable [ rr:tableName "TREATMENT" ] ;
          rr:subjectMap [ rr:template "http://ex.org/treatment/{TID}" ] .
        """
        doc, prefixes = parse_turtle(text)
        m = parse_mapping(doc, prefixes)
        tables = {
            "PATIENT": TableSource("PATIENT", ("ID",), [{"ID": "1"}]),
            "TREATMENT": TableSource(
                "TREATMENT",
                ("TID", "PATIENT_ID"),
                [{"TID": "a", "PATIENT_ID": "1"}, {"TID": "b", "PATIENT_ID": "1"}],
            ),
        }
        g, _ = convert(m, tables)
        edges = g.match(Iri(EX + "patient/1"), Iri(EX + "hasTreatment"), None)
        assert {t.o for t in edges} == {Iri(EX + "treatment/a"), Iri(EX + "treatment/b")}


REFERENCE_MAPPING = """
@prefix rr: <http://www.w3.org/ns/r2rml#> .
@prefix ex: <http://ex.org/> .
ex:PatientMap
  rr:logicalTable [ rr:tableName "PATIENT" ] ;
  rr:subjectMap [ rr:template "http://ex.org/patient/{ID}" ] ;
  rr:predicateObjectMap [
    rr:predicate ex:hasTreatment ;
    rr:objectMap [
      rr:parentTriplesMap ex:TreatmentMap ;
      rr:joinCondition [ rr:child "KEY" ; rr:parent "PATIENT_KEY" ]
    ]
  ] ;
  rr:predicateObjectMap [
    rr:predicate ex:hasSite ;
    rr:objectMap [ rr:parentTriplesMap ex:SiteMap ]
  ] .
ex:SiteMap
  rr:logicalTable [ rr:tableName "PATIENT" ] ;
  rr:subjectMap [ rr:template "http://ex.org/site/{SITE}" ] .
ex:TreatmentMap
  rr:logicalTable [ rr:tableName "TREATMENT" ] ;
  rr:subjectMap [ rr:template "http://ex.org/treatment/{TID}" ] .
"""


def reference_tables(patients, treatments):
    return {
        "PATIENT": TableSource("PATIENT", ("ID", "KEY", "SITE"), patients),
        "TREATMENT": TableSource("TREATMENT", ("TID", "PATIENT_KEY"), treatments),
    }


def edges(g, predicate):
    return sorted((t.s.value, t.o.value) for t in g.match(None, Iri(EX + predicate), None))


class TestReferences:
    def mapping(self):
        return parse_mapping(*parse_turtle(REFERENCE_MAPPING))

    def test_no_join_condition_takes_the_parent_subject_of_the_same_row(self):
        tables = reference_tables(
            [
                {"ID": "1", "KEY": None, "SITE": "lung"},
                {"ID": "2", "KEY": None, "SITE": "skin"},
                {"ID": "3", "KEY": None, "SITE": None},
            ],
            [],
        )
        g, report = convert(self.mapping(), tables)
        assert edges(g, "hasSite") == [
            (EX + "patient/1", EX + "site/lung"),
            (EX + "patient/2", EX + "site/skin"),
        ]
        # the missing site is logged once, by the site map's own pass
        assert report.skipped_log() == "<http://ex.org/SiteMap>\t3\tSITE\tsubject: NULL input\n"

    def test_no_join_condition_across_tables_fails_validation(self):
        m = self.mapping()
        patient_map = map_by_id(m, Iri(EX + "PatientMap"))
        (site,) = [p for p in patient_map.predicate_object_maps if not p.object.joins]
        site.object.parent = map_by_id(m, Iri(EX + "TreatmentMap"))
        assert_fails_validation(
            m,
            reference_tables([], []),
            "reference to <http://ex.org/TreatmentMap> needs a join condition: "
            "parent table 'TREATMENT' differs from 'PATIENT'",
        )

    def test_null_join_key_joins_nothing(self):
        tables = reference_tables(
            [
                {"ID": "1", "KEY": "k", "SITE": "lung"},
                {"ID": "2", "KEY": None, "SITE": "lung"},
            ],
            [
                {"TID": "a", "PATIENT_KEY": "k"},
                {"TID": "b", "PATIENT_KEY": None},
            ],
        )
        g, report = convert(self.mapping(), tables)
        assert edges(g, "hasTreatment") == [(EX + "patient/1", EX + "treatment/a")]
        assert report.skipped_terms == []

    def test_null_parent_subject_gives_no_edge_and_one_skip(self):
        tables = reference_tables(
            [{"ID": "1", "KEY": "k", "SITE": "lung"}],
            [
                {"TID": None, "PATIENT_KEY": "k"},
                {"TID": "b", "PATIENT_KEY": "k"},
            ],
        )
        g, report = convert(self.mapping(), tables)
        assert edges(g, "hasTreatment") == [(EX + "patient/1", EX + "treatment/b")]
        assert report.skipped_log() == (
            "<http://ex.org/TreatmentMap>\t1\tTID\tsubject: NULL input\n"
        )

    def test_parent_subject_that_cannot_be_made_gives_no_edge_and_no_child_skip(self):
        tables = reference_tables(
            [{"ID": "1", "KEY": "k", "SITE": "lung"}],
            [
                {"TID": "\ud800", "PATIENT_KEY": "k"},
                {"TID": "b", "PATIENT_KEY": "k"},
            ],
        )
        g, report = convert(self.mapping(), tables)
        assert edges(g, "hasTreatment") == [(EX + "patient/1", EX + "treatment/b")]
        assert [(t.map_id, t.row, t.column) for t in report.skipped_terms] == [
            ("<http://ex.org/TreatmentMap>", 1, "TID")
        ]

    @pytest.mark.parametrize("table, column", [("PATIENT", "KEY"), ("TREATMENT", "PATIENT_KEY")])
    def test_a_join_column_the_table_lacks_raises(self, table, column):
        tables = reference_tables(
            [{"ID": "1", "KEY": "k", "SITE": "lung"}], [{"TID": "a", "PATIENT_KEY": "k"}]
        )
        source = tables[table]
        columns = tuple(c for c in source.columns if c != column)
        rows = [{c: row[c] for c in columns} for row in source.rows]
        tables[table] = TableSource(table, columns, rows)
        side = "child" if table == "PATIENT" else "parent"
        message = f"join {side} column {column!r} absent from {table!r}"
        assert_fails_validation(self.mapping(), tables, message)

    @pytest.mark.parametrize(
        "table, column", [("PATIENT", "ID"), ("PATIENT", "KEY"), ("TREATMENT", "TID"), ("TREATMENT", "PATIENT_KEY")]
    )
    def test_a_row_added_later_that_lacks_a_column_is_a_csv_error(self, table, column):
        # TableSource checks its rows when made; a row appended to them
        # later is checked where its cells are read: a subject, a join's
        # child, a join's parent and a parent's subject column
        tables = reference_tables(
            [{"ID": "1", "KEY": "k", "SITE": "lung"}], [{"TID": "a", "PATIENT_KEY": "k"}]
        )
        rows = tables[table].rows
        rows.append({c: cell for c, cell in rows[0].items() if c != column})
        with pytest.raises(CsvError, match="^row 2 does not match the table columns$"):
            convert(self.mapping(), tables)

    def test_missing_parent_table_fails_validation(self):
        tables = reference_tables([], [])
        del tables["TREATMENT"]
        assert_fails_validation(self.mapping(), tables, "logical table 'TREATMENT' was not provided")


PREDICATE_MAP_MAPPING = """
@prefix rr: <http://www.w3.org/ns/r2rml#> .
@prefix ex: <http://ex.org/> .
ex:M rr:logicalTable [ rr:tableName "T" ] ;
  rr:subjectMap [ rr:template "http://ex.org/m/{ID}" ] ;
  rr:predicateObjectMap [ rr:predicateMap [ PREDICATE ] ; rr:objectMap [ rr:column "V" ] ] .
"""


def predicate_map(predicate):
    return parse_mapping(*parse_turtle(PREDICATE_MAP_MAPPING.replace("PREDICATE", predicate)))


class TestPredicateMaps:
    TABLE = TableSource(
        "T",
        ("ID", "KIND", "KIND_IRI", "V"),
        [
            {"ID": "1", "KIND": "k", "KIND_IRI": EX + "p/k", "V": "v"},
            {"ID": "2", "KIND": None, "KIND_IRI": None, "V": "w"},
        ],
    )

    @pytest.mark.parametrize(
        "predicate, column",
        [
            ('rr:template "http://ex.org/p/{KIND}"', "KIND"),
            ('rr:column "KIND_IRI"', "KIND_IRI"),
            ('rr:column "KIND_IRI" ; rr:termType rr:IRI', "KIND_IRI"),
        ],
        ids=["template", "column", "column-typed-iri"],
    )
    def test_predicate_from_the_row_and_null_predicate_skipped(self, predicate, column):
        g, report = convert(predicate_map(predicate), {"T": self.TABLE})
        assert set(g) == {Triple(Iri(EX + "m/1"), Iri(EX + "p/k"), Literal("v"))}
        assert report.skipped_log() == f"<http://ex.org/M>\t2\t{column}\tpredicate: NULL input\n"

    @pytest.mark.parametrize("term_type", ["Literal", "BlankNode"])
    def test_predicate_maps_must_produce_iris(self, term_type):
        with pytest.raises(MappingError) as err:
            predicate_map(f'rr:column "KIND" ; rr:termType rr:{term_type}')
        assert str(err.value) == "triples map <http://ex.org/M>: predicate maps must produce IRIs"


class TestConvert:
    def test_a_row_appended_to_a_synthetic_table_is_a_csv_error_not_a_key_error(self):
        tables = generate_synthetic(3, 1)
        rows = tables["TREATMENT"].rows
        rows.append({})
        with pytest.raises(CsvError, match=f"^row {len(rows)} does not match the table columns$"):
            convert(bundled_mapping(), tables)

    def test_empty_tables(self):
        table = TableSource("PATIENT", ("ID", "AGE"), [])
        g, report = convert(candidate_mapping(), {"PATIENT": table})
        assert len(g) == 0 and report.rows_read == 0

    def test_validation_gate(self):
        bad_table = TableSource("PATIENT", ("ID",), [])  # AGE missing
        with pytest.raises(ValidationFailedError):
            convert(candidate_mapping(), {"PATIENT": bad_table})

    def test_row_order_invariance_bytes(self):
        rng = random.Random(31)
        table = random_table(rng)
        m = simple_mapping()
        g1, _ = convert(m, {"T": table})
        shuffled_rows = table.rows[:]
        rng.shuffle(shuffled_rows)
        g2, _ = convert(m, {"T": TableSource("T", table.columns, shuffled_rows)})
        assert serialize_ntriples(g1) == serialize_ntriples(g2)

    def test_triples_map_order_invariance(self):
        rng = random.Random(32)
        table = random_table(rng)
        m = simple_mapping()
        g1, _ = convert(m, {"T": table})
        m.triples_maps.reverse()
        g2, _ = convert(m, {"T": table})
        assert g1 == g2

    def test_null_monotonicity(self):
        rng = random.Random(33)
        table = random_table(rng)
        m = simple_mapping()
        g_full, _ = convert(m, {"T": table})
        for _ in range(10):
            rows = [dict(r) for r in table.rows]
            if not rows:
                break
            row = rng.choice(rows)
            row[rng.choice(("ID", "A", "B"))] = None
            g_nulled, _ = convert(m, {"T": TableSource("T", table.columns, rows)})
            assert len(g_nulled) <= len(g_full)

    def test_report_consistency(self):
        rng = random.Random(34)
        for _ in range(10):
            table = random_table(rng)
            g, report = convert(simple_mapping(), {"T": table})
            assert report.triples_emitted == len(g)
            assert all(s.reason for s in report.skipped_terms)

    def test_emitted_iris_all_parse(self):
        # fuzzed cells: every IRI that comes out must survive Iri validation
        rng = random.Random(35)
        nasty = ["a b", "x<y>", 'q"q', "{brace}", "\\back", "café", "a|b", "100%", ""]
        rows = [
            {"ID": rng.choice(nasty), "A": rng.choice(nasty), "B": rng.choice(nasty)}
            for _ in range(40)
        ]
        table = TableSource("T", ("ID", "A", "B"), rows)
        g, _ = convert(simple_mapping(), {"T": table})
        for t in g:
            for term in (t.s, t.p, t.o):
                if isinstance(term, Iri):
                    Iri(term.value)

    def test_skipped_log_format(self):
        table = TableSource(
            "PATIENT", ("ID", "AGE"), [{"ID": "1", "AGE": "abc"}]
        )
        _, report = convert(candidate_mapping(), {"PATIENT": table})
        log = report.skipped_log()
        assert log.count("\n") == 1
        map_id, row, column, reason = log.strip().split("\t")
        assert row == "1" and column == "AGE" and reason

    def test_date_form_xsd_forbids_is_skipped_and_logged(self):
        dated = CANDIDATE_MAPPING.replace("xsd:integer", "xsd:date")
        rows = [
            {"ID": "1", "AGE": "2020-01-01+14:30"},
            {"ID": "2", "AGE": "02020-01-01"},
            {"ID": "3", "AGE": "2020-01-01+14:00"},
        ]
        table = TableSource("PATIENT", ("ID", "AGE"), rows)
        g, report = convert(parse_mapping(*parse_turtle(dated)), {"PATIENT": table})
        assert [(t.row, t.column) for t in report.skipped_terms] == [(1, "AGE"), (2, "AGE")]
        assert {t.o for t in g if t.p == Iri(EX + "hasAge")} == {
            Literal("2020-01-01+14:00", XSD_DATE)
        }

    def test_decimal_cell_outside_the_lexical_space_is_skipped_and_logged(self):
        decimal = CANDIDATE_MAPPING.replace("xsd:integer", "xsd:decimal")
        rows = [{"ID": "1", "AGE": "abc"}, {"ID": "2", "AGE": "1.5"}]
        table = TableSource("PATIENT", ("ID", "AGE"), rows)
        g, report = convert(parse_mapping(*parse_turtle(decimal)), {"PATIENT": table})
        assert [(t.row, t.column) for t in report.skipped_terms] == [(1, "AGE")]
        assert {t.o for t in g if t.p == Iri(EX + "hasAge")} == {Literal("1.5", XSD_DECIMAL)}

    def test_lone_surrogate_in_iri_cell_is_skipped_and_logged(self):
        rows = [{"ID": "\ud800", "AGE": "1"}, {"ID": "2", "AGE": "3"}]
        table = TableSource("PATIENT", ("ID", "AGE"), rows)
        g, report = convert(candidate_mapping(), {"PATIENT": table})
        assert [(t.row, t.column) for t in report.skipped_terms] == [(1, "ID")]
        assert "surrogate" in report.skipped_terms[0].reason
        assert {t.s for t in g} == {Iri(EX + "patient/2")}

    def test_lone_surrogate_in_literal_cell_is_skipped_and_logged(self):
        untyped = CANDIDATE_MAPPING.replace(" ; rr:datatype xsd:integer", "")
        table = TableSource("PATIENT", ("ID", "AGE"), [{"ID": "1", "AGE": "\ud800"}])
        g, report = convert(parse_mapping(*parse_turtle(untyped)), {"PATIENT": table})
        assert [(t.row, t.column) for t in report.skipped_terms] == [(1, "AGE")]
        assert "surrogate" in report.skipped_terms[0].reason
        serialize_ntriples(g).encode("utf-8")
        report.skipped_log().encode("utf-8")

    def test_language_tag_with_a_trailing_newline_is_skipped_and_reads_back(self):
        # a tag with a trailing newline is malformed, so the literal is
        # skipped and no output line breaks in two
        tagged = CANDIDATE_MAPPING.replace("rr:datatype xsd:integer", 'rr:language "en\\n"')
        table = TableSource("PATIENT", ("ID", "AGE"), [{"ID": "1", "AGE": "hello"}])
        g, report = convert(parse_mapping(*parse_turtle(tagged)), {"PATIENT": table})
        assert [(t.row, t.column) for t in report.skipped_terms] == [(1, "AGE")]
        assert "language tag" in report.skipped_terms[0].reason
        assert parse_ntriples(serialize_ntriples(g)) == g

    @pytest.mark.parametrize("term_type", ["IRI", "BlankNode", "Literal"])
    def test_skip_names_the_column_that_holds_the_lone_surrogate(self, term_type):
        row = {"ID": "1", "A": "a", "B": "b\ud800"}
        g, report = convert(*two_column_object(term_type, row))
        assert [(t.row, t.column) for t in report.skipped_terms] == [(1, "B")]
        assert "surrogate" in report.skipped_terms[0].reason
        assert len(g) == 0

    @pytest.mark.parametrize("term_type", ["IRI", "BlankNode", "Literal"])
    def test_a_null_cell_is_logged_before_another_cell_s_error(self, term_type):
        # R2RML 7.3: a NULL in any referenced column makes no term, so the
        # row logs its NULL, not the error A's lone surrogate would cause
        row = {"ID": "1", "A": "\ud800", "B": None}
        g, report = convert(*two_column_object(term_type, row))
        assert [(t.row, t.column, t.reason) for t in report.skipped_terms] == [
            (1, "B", "object: NULL input")
        ]
        assert len(g) == 0

    def test_skip_of_an_error_no_cell_causes_names_the_first_column(self):
        text = """
        @prefix rr: <http://www.w3.org/ns/r2rml#> .
        @prefix ex: <http://ex.org/> .
        @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
        ex:M rr:logicalTable [ rr:tableName "T" ] ;
          rr:subjectMap [ rr:template "http://ex.org/m/{ID}" ] ;
          rr:predicateObjectMap [
            rr:predicate ex:p ;
            rr:objectMap [ rr:template "{A}-{B}" ; rr:termType rr:Literal ;
                           rr:datatype xsd:integer ]
          ] .
        """
        table = TableSource("T", ("ID", "A", "B"), [{"ID": "1", "A": "1", "B": "2"}])
        _, report = convert(parse_mapping(*parse_turtle(text)), {"T": table})
        assert [(t.row, t.column) for t in report.skipped_terms] == [(1, "A")]

    def test_date_cell_with_a_long_year_converts(self):
        # 5,000 digits: past the 4,300 that `int` converts from text by default
        date = "9" * 5000 + "-01-01"
        tables = generate_synthetic(3, 1)
        treatments = tables["TREATMENT"]
        rows = [{**treatments.rows[0], "RT_START_DATE": date}] + treatments.rows[1:]
        tables["TREATMENT"] = TableSource("TREATMENT", treatments.columns, rows)
        g, report = convert(bundled_mapping(), tables)
        assert report.skipped_terms == []
        assert Literal(date, XSD_DATE) in {t.o for t in g}
        assert parse_ntriples(serialize_ntriples(g)) == g

    def test_skipped_log_in_map_order_then_row_order(self):
        text = CANDIDATE_MAPPING + """
        ex:WeightMap
          rr:logicalTable [ rr:tableName "PATIENT" ] ;
          rr:subjectMap [ rr:template "http://ex.org/weight/{ID}" ] ;
          rr:predicateObjectMap [
            rr:predicate ex:kg ;
            rr:objectMap [ rr:column "AGE" ; rr:datatype xsd:integer ]
          ] .
        """
        rows = [
            {"ID": "1", "AGE": "abc"},
            {"ID": None, "AGE": "5"},
            {"ID": "3", "AGE": None},
        ]
        table = TableSource("PATIENT", ("ID", "AGE"), rows)
        _, report = convert(parse_mapping(*parse_turtle(text)), {"PATIENT": table})
        logged = [tuple(line.split("\t")[:3]) for line in report.skipped_log().splitlines()]
        assert logged == [
            ("<http://ex.org/PatientMap>", "1", "AGE"),
            ("<http://ex.org/PatientMap>", "2", "ID"),
            ("<http://ex.org/PatientMap>", "3", "AGE"),
            ("<http://ex.org/WeightMap>", "1", "AGE"),
            ("<http://ex.org/WeightMap>", "2", "ID"),
            ("<http://ex.org/WeightMap>", "3", "AGE"),
        ]


def two_column_object(term_type, row):
    """A mapping whose object of term_type fills `http://ex.org/{A}/{B}`,
    and its table T(ID, A, B) of the one row."""
    text = f"""
    @prefix rr: <http://www.w3.org/ns/r2rml#> .
    @prefix ex: <http://ex.org/> .
    ex:M rr:logicalTable [ rr:tableName "T" ] ;
      rr:subjectMap [ rr:template "http://ex.org/m/{{ID}}" ] ;
      rr:predicateObjectMap [
        rr:predicate ex:p ;
        rr:objectMap [ rr:template "http://ex.org/{{A}}/{{B}}" ; rr:termType rr:{term_type} ]
      ] .
    """
    return parse_mapping(*parse_turtle(text)), {"T": TableSource("T", ("ID", "A", "B"), [row])}


def assert_as_every_row(m, tables):
    """convert gives what the reference that makes every row's terms afresh gives."""
    g, report = convert(m, tables)
    want_g, want = convert_every_row(m, tables)
    assert serialize_ntriples(g) == serialize_ntriples(want_g)
    assert list(g) == list(want_g)  # insertion order, which iteration and match follow
    assert report.skipped_log() == want.skipped_log()
    assert report.skipped_terms == want.skipped_terms
    assert (report.rows_read, report.triples_emitted, report.triples_deduplicated) == (
        want.rows_read,
        want.triples_emitted,
        want.triples_deduplicated,
    )
    return g, report


def assert_as_row_by_row(m, tables):
    """convert gives the graph, term IDs, insertion order and report of
    spelling each term map's column a row at a time."""
    g, report = convert(m, tables)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(convert_module, "_column", column_every_row)
        want_g, want = convert(m, tables)
    assert g._terms == want_g._terms
    assert list(g._triples) == list(want_g._triples)
    assert report == want


def dirty_registry(n, seed):
    """generate_synthetic's tables with NULL ages and sexes and impossible dates."""
    tables = generate_synthetic(n, seed)
    for i, row in enumerate(tables["PATIENT"].rows):
        if i % 37 == 5:
            row["AGE"] = None
        if i % 41 == 7:
            row["SEX"] = None
    for i, row in enumerate(tables["TREATMENT"].rows):
        if i % 29 == 3:
            row["RT_START_DATE"] = ("2021-02-30", "2019-04-31")[i % 2]
    return tables


def age_map(rows, columns=("ID", "AGE")):
    return candidate_mapping(), {"PATIENT": TableSource("PATIENT", columns, rows)}


class TestTermTable:
    """convert makes each distinct (term map, cells) once; the output and
    the report are those of making every term on every row."""

    @pytest.mark.parametrize("case_dir", fixture_cases(), ids=lambda p: p.name)
    def test_fixture_as_every_row(self, case_dir):
        assert_as_every_row(*fixture_case(case_dir))

    def test_dirty_registry_as_every_row(self):
        _, report = assert_as_every_row(bundled_mapping(), dirty_registry(2500, 1))
        reasons = {t.reason.split(":")[0] + ":" + t.column for t in report.skipped_terms}
        assert reasons == {"object:AGE", "object:SEX", "subject:SEX", "object:RT_START_DATE"}

    @pytest.mark.parametrize("cell", [None, "abc"], ids=["null", "invalid"])
    def test_a_cell_repeated_on_n_rows_gives_n_skips(self, cell):
        rows = [{"ID": "1", "AGE": cell} for _ in range(5)]
        g, report = assert_as_every_row(*age_map(rows))
        assert [(t.row, t.column) for t in report.skipped_terms] == [(i, "AGE") for i in range(1, 6)]
        assert len(g) == 1  # the rdf:type triple of the one subject

    def test_a_missing_column_raises(self):
        m, tables = age_map([{"ID": "1"}, {"ID": "2"}], columns=("ID",))
        message = "object map references column 'AGE' absent from table 'PATIENT'"
        assert_fails_validation(m, tables, message)

    @pytest.mark.parametrize(
        "rows",
        [
            [{"A": None}, {"A": None}, {"A": "x"}],
            [{"A": None}, {"A": None}],  # every row NULL before the gap
            [],
        ],
        ids=["null then cell", "all null", "no rows"],
    )
    def test_a_missing_column_raises_before_any_row_runs(self, rows):
        # {A} is NULL on some or all rows, so no row's term needs {B}
        sm = TermMap(term_kind="IRI", template=parse_template("http://ex.org/{A}/{B}"))
        tm = TriplesMap(Iri(EX + "M"), "T", sm, subject_classes=[Iri(EX + "C")])
        m = MappingDocument([tm], PrefixMap())
        message = "subject map references column 'B' absent from table 'T'"
        assert_fails_validation(m, {"T": TableSource("T", ("A",), rows)}, message)

    def test_an_empty_cell_makes_no_blank_node_label(self):
        # a quoted empty field is "", not NULL: the label is what fails
        sm = TermMap(term_kind="BlankNode", column="ID")
        tm = TriplesMap(Iri(EX + "M"), "T", sm, subject_classes=[Iri(EX + "C")])
        table = load_csv('ID\n""\nb\n', "T")
        g, report = assert_as_every_row(MappingDocument([tm], PrefixMap()), {"T": table})
        assert [(t.row, t.column, t.reason) for t in report.skipped_terms] == [
            (1, "ID", "subject: blank node label came out empty")
        ]
        assert len(g) == 1

    def test_a_term_map_without_source_is_skipped_on_every_row(self):
        sm = TermMap(term_kind="IRI", template=parse_template("http://ex.org/{ID}"))
        no_source = TermMap(term_kind="Literal")
        pom = PredicateObjectMap(TermMap(term_kind="IRI", constant=Iri(EX + "p")), no_source)
        tm = TriplesMap(Iri(EX + "M"), "T", sm, predicate_object_maps=[pom])
        table = TableSource("T", ("ID",), [{"ID": "1"}, {"ID": "1"}])
        g, report = convert(MappingDocument([tm], PrefixMap()), {"T": table})
        assert len(g) == 0
        assert [(t.row, t.column) for t in report.skipped_terms] == [(1, ""), (2, "")]

    def test_dirty_references_as_every_row(self):
        tables = reference_tables(
            [
                {"ID": "1", "KEY": "k", "SITE": "lung"},
                {"ID": "2", "KEY": None, "SITE": "skin"},  # a NULL child join key
                {"ID": "3", "KEY": "d", "SITE": None},  # a NULL under the no-join reference
                {"ID": "4", "KEY": "k", "SITE": "\ud800"},  # a site that cannot be made
                {"ID": "1", "KEY": "m", "SITE": "lung"},
            ],
            [
                {"TID": "a", "PATIENT_KEY": "k"},
                {"TID": "b", "PATIENT_KEY": None},  # a NULL parent join key
                {"TID": None, "PATIENT_KEY": "k"},  # a NULL parent subject
                {"TID": "\udc00", "PATIENT_KEY": "m"},  # a lone-surrogate parent subject
                {"TID": "c", "PATIENT_KEY": "d"},
                {"TID": "c", "PATIENT_KEY": "d"},  # equal key and subject: a duplicate edge
                {"TID": "e", "PATIENT_KEY": "m"},
            ],
        )
        g, report = assert_as_every_row(parse_mapping(*parse_turtle(REFERENCE_MAPPING)), tables)
        assert edges(g, "hasTreatment") == [
            (EX + "patient/1", EX + "treatment/a"),
            (EX + "patient/1", EX + "treatment/e"),
            (EX + "patient/3", EX + "treatment/c"),
            (EX + "patient/4", EX + "treatment/a"),
        ]
        assert report.triples_deduplicated == 2  # the duplicate edge and patient/1's site
        assert [(t.map_id, t.row, t.column) for t in report.skipped_terms] == [
            ("<http://ex.org/SiteMap>", 3, "SITE"),
            ("<http://ex.org/SiteMap>", 4, "SITE"),
            ("<http://ex.org/TreatmentMap>", 3, "TID"),
            ("<http://ex.org/TreatmentMap>", 4, "TID"),
        ]

    def test_a_join_to_a_map_in_no_document(self):
        # the parent map is reachable only through the reference: its
        # subjects are made for the join, and their skips are not logged
        parent = TriplesMap(
            Iri(EX + "T"), "T", TermMap(term_kind="IRI", template=parse_template(EX + "t/{TID}"))
        )
        has = PredicateObjectMap(
            TermMap("IRI", constant=Iri(EX + "has")),
            RefObjectMap(parent, (("KEY", "PATIENT_KEY"),)),
        )
        child = TriplesMap(
            Iri(EX + "P"),
            "P",
            TermMap(term_kind="IRI", template=parse_template(EX + "p/{ID}")),
            predicate_object_maps=[has],
        )
        tables = {
            "P": TableSource(
                "P", ("ID", "KEY"), [{"ID": "1", "KEY": "k"}, {"ID": "2", "KEY": "x"}]
            ),
            "T": TableSource(
                "T",
                ("TID", "PATIENT_KEY"),
                [{"TID": None, "PATIENT_KEY": "k"}, {"TID": "a", "PATIENT_KEY": "k"}],
            ),
        }
        m = MappingDocument([child], PrefixMap())
        g, report = convert(m, tables)
        assert list(g) == [Triple(Iri(EX + "p/1"), Iri(EX + "has"), Iri(EX + "t/a"))]
        assert report.rows_read == 2 and report.skipped_terms == []
        # the parent is checked at the reference: a parent table without
        # the parent subject's column fails, even when no child row
        # joins, and so does a parent table that was not provided
        tables["T"] = TableSource("T", ("PATIENT_KEY",), [{"PATIENT_KEY": "z"}])
        message = "parent subject map references column 'TID' absent from table 'T'"
        assert_fails_validation(m, tables, message)
        del tables["T"]
        assert_fails_validation(m, tables, "logical table 'T' was not provided")

    def test_two_object_maps_failing_on_two_rows_log_in_row_then_map_order(self):
        sm = TermMap(term_kind="IRI", template=parse_template(EX + "{ID}"))
        poms = [
            PredicateObjectMap(
                TermMap(term_kind="IRI", constant=Iri(EX + name)),
                TermMap(term_kind="Literal", column=name, datatype=XSD_INTEGER),
            )
            for name in ("A", "B")
        ]
        tm = TriplesMap(Iri(EX + "M"), "T", sm, predicate_object_maps=poms)
        rows = [{"ID": "1", "A": "x", "B": "y"}, {"ID": "2", "A": None, "B": "z"}]
        table = TableSource("T", ("ID", "A", "B"), rows)
        _, report = assert_as_every_row(MappingDocument([tm], PrefixMap()), {"T": table})
        assert [(t.row, t.column) for t in report.skipped_terms] == [
            (1, "A"),
            (1, "B"),
            (2, "A"),
            (2, "B"),
        ]

    def test_maps_applied_to_a_graph_with_built_indexes_keep_them_whole(self):
        m, tables = bundled_mapping(), generate_synthetic(30, 1)
        g, report = Graph(), ConversionReport()
        convert_module._apply_triples_map(m.triples_maps[0], tables, g, report, {})
        for pos in range(3):
            g._index(pos)
        for tm in m.triples_maps:  # the first again: every one of its triples is a duplicate
            convert_module._apply_triples_map(tm, tables, g, report, {})
        assert g == convert(m, tables)[0]
        fresh = merge([g])  # the same IDs, indexes built from the triples as they stand
        for pos in range(3):
            assert g._index(pos) == fresh._index(pos), pos

    def test_a_repeated_subject_counts_each_class_triple_as_a_duplicate(self):
        sm = TermMap(term_kind="IRI", template=parse_template("http://ex.org/{ID}"))
        c = Iri(EX + "C")
        tm = TriplesMap(Iri(EX + "M"), "T", sm, subject_classes=[c, c])
        table = TableSource("T", ("ID",), [{"ID": "1"}, {"ID": "2"}, {"ID": "1"}])
        g, report = assert_as_every_row(MappingDocument([tm], PrefixMap()), {"T": table})
        assert len(g) == 2 and report.triples_deduplicated == 4

    def test_equal_terms_are_one_object(self):
        # across rows, across maps with equal term maps, and on a reference's parent line
        g, _ = convert(bundled_mapping(), generate_synthetic(30, 1))
        first = {}
        for t in g:
            for term in (t.s, t.o):
                assert first.setdefault(term, term) is term


# (term kind, template, datatype, language): the shapes a column is spelt by
SPELLER_MAPS = [
    ("IRI", "http://ex.org/p/{A}", None, None),  # settled
    ("IRI", "{A}:x", None, None),  # first segment a column
    ("IRI", "http://ex.org/a b/{A}", None, None),  # a constant holding a space
    ("IRI", r"http://ex.org/\{{A}\}", None, None),  # a constant holding braces
    ("IRI", "ex.org/{A}", None, None),  # no scheme, ever
    ("IRI", "ex{A}:y", None, None),  # a scheme only some cells complete
    ("IRI", "urn:{A}", None, None),
    ("IRI", "http://ex.org/{A}-{B}/{A}", None, None),  # several columns
    ("Literal", "{A}{B}", XSD_INTEGER, None),
    ("Literal", "v {A}", None, "en"),
    ("Literal", "{B}", None, None),
    ("BlankNode", "b{A}{B}", None, None),
]
# cell parts, run together by random_cell, which also gives NULL: the
# empty string, a space, characters that need percent-encoding, ucschar,
# private use (not ucschar), a lone surrogate, a scheme
SPELLER_CELLS = ["", " ", ":", "%", "\u00e9", "\ue000", "\ud800", "1", "-2", "a", "urn"]


def random_cell(rng):
    if rng.random() < 0.15:
        return None
    return "".join(rng.choice(SPELLER_CELLS) for _ in range(rng.randint(0, 3)))


def speller_mapping(rng):
    """A triples map over T(A, B): a random IRI or blank-node subject
    template, then every SPELLER_MAPS shape and two column maps as objects."""
    subject = rng.choice([m for m in SPELLER_MAPS if m[0] != "Literal"])
    objects = [
        TermMap(term_kind=kind, template=parse_template(t), datatype=dt, language=lang)
        for kind, t, dt, lang in SPELLER_MAPS
    ]
    objects += [TermMap(term_kind="IRI", column="A"), TermMap(term_kind="Literal", column="B")]
    poms = [
        PredicateObjectMap(TermMap(term_kind="IRI", constant=Iri(f"{EX}p{k}")), om)
        for k, om in enumerate(objects)
    ]
    sm = TermMap(term_kind=subject[0], template=parse_template(subject[1]))
    tm = TriplesMap(Iri(EX + "M"), "T", sm, [Iri(EX + "C")], poms)
    return MappingDocument([tm], PrefixMap())


class TestSpeller:
    """A column's new terms are spelt in one batch per term map and
    interned in one step; output, skips and IDs are those of spelling
    each row's term afresh."""

    def test_random_templates_and_cells_as_every_row(self):
        rng = random.Random(23)
        for trial in range(150):
            rows = [
                {"A": random_cell(rng), "B": random_cell(rng)} for _ in range(rng.randint(0, 12))
            ]
            rows += rng.sample(rows, min(len(rows), 3))  # repeated cells
            table = TableSource("T", ("A", "B"), rows)
            m = speller_mapping(rng)
            assert_as_every_row(m, {"T": table})
            assert_as_row_by_row(m, {"T": table})

    def test_dirty_registry_as_row_by_row(self):
        assert_as_row_by_row(bundled_mapping(), dirty_registry(300, 1))

    def test_bulk_interning_gives_the_ids_of_interning_one_at_a_time(self):
        rng = random.Random(24)
        pool = [f'"{i}"' for i in range(12)] + [f"<{EX}{i}>" for i in range(12)]
        for _ in range(100):
            one, bulk = Graph(), Graph()
            for spelling in rng.sample(pool, rng.randint(0, 8)):
                one._intern(spelling)
                bulk._intern(spelling)
            batch = [rng.choice(pool) for _ in range(rng.randint(0, 20))]  # repeats
            assert bulk._intern_all(batch) == [one._intern(s) for s in batch]
            assert bulk._terms == one._terms and bulk._ids == one._ids

    @pytest.mark.parametrize(
        "text, settled",
        [
            ("http://ex.org/{A}", True),
            ("urn:{A}-{B}", True),
            ("{A}:x", False),
            ("{h:}x", False),  # a column whose name looks like a scheme
            ("ex{A}:y", False),
            ("http://ex.org/a b/{A}", False),
            (r"http://ex.org/\{{A}", False),
        ],
    )
    def test_settled_templates(self, text, settled):
        assert convert_module._settled(parse_template(text)) is settled

    def test_settled_templates_are_spelt_without_check_iri(self, monkeypatch):
        calls = []

        def counted(text):
            calls.append(text)
            return check_iri(text)

        monkeypatch.setattr(convert_module, "check_iri", counted)
        g, _ = convert(bundled_mapping(), dirty_registry(300, 1))
        assert len(g) > 0 and calls == []
        # a template that starts with a column checks each distinct term
        # once, a failed one too, whose row logs its skip from that one
        # check; so does an IRI column
        sm = TermMap(term_kind="IRI", template=parse_template("{ID}:x"))
        pom = PredicateObjectMap(
            TermMap(term_kind="IRI", constant=Iri(EX + "p")), TermMap(term_kind="IRI", column="URL")
        )
        tm = TriplesMap(Iri(EX + "M"), "T", sm, predicate_object_maps=[pom])
        rows = [
            {"ID": "a", "URL": "urn:u"},
            {"ID": "b", "URL": "urn:u"},
            {"ID": "a", "URL": "urn:v"},
            {"ID": "1", "URL": "urn:w"},
        ]
        table = TableSource("T", ("ID", "URL"), rows)
        g, report = convert(MappingDocument([tm], PrefixMap()), {"T": table})
        assert calls == ["a:x", "b:x", "1:x", "urn:u", "urn:v"]
        assert [(t.row, t.column) for t in report.skipped_terms] == [(4, "ID")]
        assert len(g) == 3
