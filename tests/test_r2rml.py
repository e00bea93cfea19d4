"""Mapping documents: template grammar, parsing, validation diagnostics."""

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from triplify import (
    BlankNode,
    Graph,
    Iri,
    Literal,
    Triple,
    parse_mapping,
    parse_template,
    parse_turtle,
    validate_mapping,
)
from triplify.errors import (
    ConflictingSourceError,
    DanglingParentMapError,
    EmptyColumnNameError,
    LiteralSubjectError,
    MappingError,
    MissingLogicalTableError,
    MissingSubjectMapError,
    NoColumnReferenceError,
    UnbalancedBracesError,
    UnsupportedFeatureError,
)
from triplify.r2rml import (
    _IGNORED,
    _KNOWN,
    _REJECTED,
    RR_COLUMN,
    RR_LOGICAL_TABLE,
    RR_NS,
    RR_OBJECT_MAP,
    RR_POM,
    RR_PREDICATE,
    RR_SUBJECT_MAP,
    RR_TABLE_NAME,
    RR_TEMPLATE,
    RefObjectMap,
    TemplateSegment,
    _read_nodes,
)
from triplify.terms import RDF_LANGSTRING

from oracles import line_of

SRC = str(Path(__file__).resolve().parents[1] / "src")
RR = "@prefix rr: <http://www.w3.org/ns/r2rml#> .\n@prefix ex: <http://ex.org/> .\n"
XSD = "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"


def mapping_of(turtle_text):
    doc, prefixes = parse_turtle(turtle_text)
    return parse_mapping(doc, prefixes)


class TestParseTemplate:
    def test_single_column(self):
        t = parse_template("http://e.org/patient/{ID}")
        assert [s.value for s in t.segments] == ["http://e.org/patient/", "ID"]
        assert t.columns() == ["ID"]

    def test_two_columns_with_separator(self):
        t = parse_template("{A}-{B}")
        assert [(s.value, s.is_column) for s in t.segments] == [
            ("A", True),
            ("-", False),
            ("B", True),
        ]

    def test_escaped_braces_without_column_rejected(self):
        with pytest.raises(NoColumnReferenceError):
            parse_template("x\\{y\\}")

    def test_escaped_braces_become_literal(self):
        t = parse_template("\\{{A}\\}")
        assert [(s.value, s.is_column) for s in t.segments] == [
            ("{", False),
            ("A", True),
            ("}", False),
        ]

    @pytest.mark.parametrize("bad", ["{A", "A}", "{A{B}}"])
    def test_unbalanced(self, bad):
        with pytest.raises(UnbalancedBracesError):
            parse_template(bad)

    def test_empty_column_name(self):
        with pytest.raises(EmptyColumnNameError):
            parse_template("x{}y")

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("{A", "unclosed '{' at offset 1"),
            ("a{b{c", "unclosed '{' at offset 2"),
            ("{A{B}}", "nested '{' at offset 1"),
            ("a{b\\{c}", "nested '{' at offset 2"),
            ("\\{A}", "stray '}' at offset 4"),
        ],
    )
    def test_unbalanced_message_names_the_problem_and_offset(self, bad, message):
        with pytest.raises(UnbalancedBracesError, match=f"^{re.escape(message)}: "):
            parse_template(bad)

    def test_unparse_reparse_identity(self):
        # segments drawn at random, written as template text with each
        # literal brace escaped, read back as drawn
        rng = random.Random(12)
        for _ in range(300):
            segments = []
            for _ in range(rng.randint(1, 6)):
                if segments and not segments[-1].is_column or rng.random() < 0.5:
                    name = "".join(rng.choices("AB :h\\", k=rng.randint(1, 3)))
                    segments.append(TemplateSegment(name, True))
                else:
                    # a backslash before a column's `{` would escape it
                    value = "".join(rng.choices("ab/-{}\\", k=rng.randint(1, 4)))
                    segments.append(TemplateSegment(value.rstrip("\\") or "a", False))
            if not any(seg.is_column for seg in segments):
                segments.append(TemplateSegment("ID", True))
            text = "".join(
                "{" + seg.value + "}"
                if seg.is_column
                else seg.value.replace("{", "\\{").replace("}", "\\}")
                for seg in segments
            )
            assert parse_template(text).segments == tuple(segments), text


MINIMAL = RR + XSD + """
ex:PatientMap
  rr:logicalTable [ rr:tableName "PATIENT" ] ;
  rr:subjectMap [ rr:template "http://data.example.org/patient/{ID}" ; rr:class ex:Patient ] ;
  rr:predicateObjectMap [
    rr:predicate ex:hasAge ;
    rr:objectMap [ rr:column "AGE" ; rr:datatype xsd:integer ]
  ] .
"""


class TestParseMapping:
    def test_minimal_document(self):
        m = mapping_of(MINIMAL)
        assert len(m.triples_maps) == 1
        tm = m.triples_maps[0]
        assert tm.logical_table == "PATIENT"
        assert tm.subject_map.template.columns() == ["ID"]
        assert tm.subject_classes == [Iri("http://ex.org/Patient")]
        assert len(tm.predicate_object_maps) == 1
        pom = tm.predicate_object_maps[0]
        assert pom.predicate.constant == Iri("http://ex.org/hasAge")
        assert pom.object.column == "AGE"
        assert pom.object.datatype.value.endswith("integer")
        assert pom.object.term_kind == "Literal"

    def test_literal_subject_rejected(self):
        text = RR + """
        ex:Bad rr:logicalTable [ rr:tableName "T" ] ;
          rr:subjectMap [ rr:column "ID" ; rr:termType rr:Literal ] .
        """
        with pytest.raises(LiteralSubjectError):
            mapping_of(text)

    def test_empty_document(self):
        with pytest.raises(MissingSubjectMapError):
            mapping_of(RR + "ex:unrelated ex:p ex:o .")

    def test_missing_logical_table(self):
        text = RR + 'ex:Bad rr:subjectMap [ rr:template "http://e.org/{ID}" ] .'
        with pytest.raises(MissingLogicalTableError):
            mapping_of(text)

    def test_conflicting_source(self):
        text = RR + """
        ex:Bad rr:logicalTable [ rr:tableName "T" ] ;
          rr:subjectMap [ rr:template "http://e.org/{ID}" ; rr:column "ID" ] .
        """
        with pytest.raises(ConflictingSourceError):
            mapping_of(text)

    def test_dangling_parent(self):
        text = RR + """
        ex:Child rr:logicalTable [ rr:tableName "T" ] ;
          rr:subjectMap [ rr:template "http://e.org/{ID}" ] ;
          rr:predicateObjectMap [
            rr:predicate ex:link ;
            rr:objectMap [ rr:parentTriplesMap ex:Nowhere ]
          ] .
        """
        with pytest.raises(DanglingParentMapError):
            mapping_of(text)

    def test_sql_query_rejected(self):
        text = RR + """
        ex:Bad rr:logicalTable [ rr:sqlQuery "SELECT * FROM T" ] ;
          rr:subjectMap [ rr:template "http://e.org/{ID}" ] .
        """
        with pytest.raises(UnsupportedFeatureError):
            mapping_of(text)

    def test_graph_map_rejected(self):
        text = RR + """
        ex:Bad rr:logicalTable [ rr:tableName "T" ] ;
          rr:subjectMap [ rr:template "http://e.org/{ID}" ; rr:graphMap [ rr:constant ex:g ] ] .
        """
        with pytest.raises(UnsupportedFeatureError):
            mapping_of(text)

    def test_unknown_property_warns(self):
        text = RR + """
        ex:M rr:logicalTable [ rr:tableName "T" ] ;
          rr:subjectMap [ rr:template "http://e.org/{ID}" ; rr:madeUp "x" ] .
        """
        m = mapping_of(text)
        assert any("madeUp" in w for w in m.warnings)

    def test_inverse_expression_warns(self):
        text = RR + """
        ex:M rr:logicalTable [ rr:tableName "T" ] ;
          rr:subjectMap [ rr:template "http://e.org/{ID}" ;
                          rr:inverseExpression "{ID} = id" ] .
        """
        m = mapping_of(text)
        assert any("inverseExpression" in w for w in m.warnings)
        assert len(m.triples_maps) == 1

    def test_warning_order_independent_of_hash_seed(self):
        # warnings follow the mapping graph's triples in canonical order,
        # never string hashing, which PYTHONHASHSEED randomises
        text = RR + """
        ex:M rr:logicalTable [ rr:tableName "T" ; rr:sqlVersion rr:SQL2008 ] ;
          rr:subjectMap [ rr:template "http://e.org/{ID}" ; rr:madeUp "x" ;
                          rr:inverseExpression "{ID} = id" ] ;
          rr:alsoMadeUp "y" .
        """
        script = (
            "import sys; from triplify import parse_mapping, parse_turtle; "
            "print(parse_mapping(*parse_turtle(sys.stdin.read())).warnings)"
        )
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
            done = subprocess.run(
                [sys.executable, "-c", script],
                input=text, env=env, capture_output=True, text=True, check=True,
            )
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count("<http://www.w3.org/ns/r2rml#") == 2

    def test_maps_poms_and_warnings_in_canonical_order(self):
        # the graph keeps document order; the reader sorts what it reads
        text = RR + """
        ex:B rr:logicalTable [ rr:tableName "T" ] ;
          rr:subjectMap [ rr:template "http://e.org/b/{ID}" ] .
        ex:A rr:logicalTable [ rr:tableName "T" ] ;
          rr:subjectMap [ rr:template "http://e.org/a/{ID}" ] ;
          rr:zz "z" ; rr:aa "a" ;
          rr:predicateObjectMap ex:pom2, ex:pom1 .
        ex:pom2 rr:predicate ex:r ; rr:objectMap [ rr:column "C" ] .
        ex:pom1 rr:predicate ex:q, ex:p ; rr:objectMap [ rr:column "D" ] .
        """
        m = mapping_of(text)
        assert [tm.id for tm in m.triples_maps] == [Iri("http://ex.org/A"), Iri("http://ex.org/B")]
        poms = m.triples_maps[0].predicate_object_maps
        assert [pom.predicate.constant.value for pom in poms] == [
            "http://ex.org/p",
            "http://ex.org/q",
            "http://ex.org/r",
        ]
        assert [w.rsplit("#", 1)[1] for w in m.warnings] == ["aa>", "zz>"]

    def test_nodes_are_read_in_line_order(self):
        # spellings that are prefixes of others: a blank label of a longer
        # one, a literal of its tagged and typed forms, an IRI of none
        rng = random.Random(9)
        subjects = [BlankNode(label) for label in ("a", "ab", "a1")] + [
            Iri("http://e.org/a"),
            Iri("http://e.org/a/b"),
        ]
        predicates = [Iri(RR_NS + local) for local in ("madeUp", "madeUpToo", "sqlVersion")]
        predicates += [Iri("http://e.org/p"), Iri("http://e.org/pq")]
        objects = subjects + [
            Literal("a"),
            Literal("a", RDF_LANGSTRING, "en"),
            Literal("a", RDF_LANGSTRING, "en-GB"),
            Literal("a", Iri("http://e.org/d")),
            Literal("a b"),
            Literal("a\n"),
        ]
        for _ in range(50):
            doc = Graph(
                Triple(rng.choice(subjects), rng.choice(predicates), rng.choice(objects))
                for _ in range(rng.randint(0, 40))
            )
            want, want_warnings, seen = {}, [], set()
            for t in sorted(doc, key=line_of):  # the order of the lines
                want.setdefault(t.s, {}).setdefault(t.p, []).append(t.o)
                if t.p in _IGNORED:
                    want_warnings.append(_IGNORED[t.p])
                elif t.p.value.startswith(RR_NS) and t.p not in _KNOWN | seen:
                    seen.add(t.p)
                    want_warnings.append(f"unknown R2RML property ignored: <{t.p.value}>")
            warnings = []
            nodes = _read_nodes(doc, warnings)
            assert [(s, list(props.items())) for s, props in nodes.items()] == [
                (s, list(props.items())) for s, props in want.items()
            ]
            assert warnings == want_warnings

    def test_multiple_predicates_and_objects_flatten(self):
        text = RR + """
        ex:M rr:logicalTable [ rr:tableName "T" ] ;
          rr:subjectMap [ rr:template "http://e.org/{ID}" ] ;
          rr:predicateObjectMap [
            rr:predicate ex:p1, ex:p2 ;
            rr:objectMap [ rr:column "A" ], [ rr:column "B" ]
          ] .
        """
        m = mapping_of(text)
        assert len(m.triples_maps[0].predicate_object_maps) == 4

    def test_join_conditions_parsed(self):
        text = RR + """
        ex:Child rr:logicalTable [ rr:tableName "C" ] ;
          rr:subjectMap [ rr:template "http://e.org/c/{ID}" ] ;
          rr:predicateObjectMap [
            rr:predicate ex:link ;
            rr:objectMap [
              rr:parentTriplesMap ex:Parent ;
              rr:joinCondition [ rr:child "PID" ; rr:parent "ID" ]
            ]
          ] .
        ex:Parent rr:logicalTable [ rr:tableName "P" ] ;
          rr:subjectMap [ rr:template "http://e.org/p/{ID}" ] .
        """
        m = mapping_of(text)
        (child,) = [tm for tm in m.triples_maps if tm.id == Iri("http://ex.org/Child")]
        rom = child.predicate_object_maps[0].object
        assert isinstance(rom, RefObjectMap)
        assert rom.joins == (("PID", "ID"),)
        assert rom.parent.logical_table == "P"

    def test_constant_subject_shortcut(self):
        text = RR + """
        ex:M rr:logicalTable [ rr:tableName "T" ] ; rr:subject ex:theOne ;
          rr:predicateObjectMap [ rr:predicate ex:p ; rr:objectMap [ rr:column "A" ] ] .
        """
        m = mapping_of(text)
        assert m.triples_maps[0].subject_map.constant == Iri("http://ex.org/theOne")

    def test_parsing_is_total_over_random_documents(self):
        # one valid triples map plus random rr:-flavored triples yields a
        # MappingDocument or a typed error, never an unhandled crash; a
        # parsed one validates, then converts as the every-row reference
        # does or raises a typed error
        from triplify import BlankNode, Graph, Literal, PrefixMap, TableSource, Triple, convert
        from triplify.errors import TriplifyError

        from oracles import convert_every_row

        rng = random.Random(2718)
        # the properties the parser reads; a rejected one would end most
        # documents before parsing starts
        rr_props = sorted(_KNOWN - set(_REJECTED) - set(_IGNORED), key=lambda i: i.value)
        subjects = [Iri(f"http://ex.org/m{i}") for i in range(3)] + [
            BlankNode(f"n{i}") for i in range(4)
        ]
        objects = subjects + [
            Literal("PATIENT"),
            Literal("http://ex.org/{ID}"),
            Literal("{A}-{B}"),
            Literal("A"),
            Literal("63"),
            Iri("http://ex.org/thing"),
            Iri("http://www.w3.org/ns/r2rml#Literal"),
        ]
        m0, n0, n1, n2, n3 = subjects[0], *subjects[3:]
        valid_map = [
            Triple(m0, RR_LOGICAL_TABLE, n0),
            Triple(n0, RR_TABLE_NAME, Literal("PATIENT")),
            Triple(m0, RR_SUBJECT_MAP, n1),
            Triple(n1, RR_TEMPLATE, Literal("http://ex.org/{ID}")),
            Triple(m0, RR_POM, n2),
            Triple(n2, RR_PREDICATE, Iri("http://ex.org/thing")),
            Triple(n2, RR_OBJECT_MAP, n3),
            Triple(n3, RR_COLUMN, Literal("A")),
        ]
        cells = ["1", "1", "63", "a b", None]
        rows = [
            {"ID": rng.choice(cells), "A": rng.choice(cells), "B": rng.choice(cells)}
            for _ in range(8)
        ]
        tables = {"PATIENT": TableSource("PATIENT", ("ID", "A", "B"), rows)}
        columns = {"PATIENT": {"ID", "A", "B"}}
        outcomes = {"typed-error": 0, "converted": 0, "not-converted": 0}
        for _ in range(150):
            doc = Graph(valid_map)
            for _ in range(rng.randint(1, 12)):
                doc.add(
                    Triple(rng.choice(subjects), rng.choice(rr_props), rng.choice(objects))
                )
            try:
                m = parse_mapping(doc, PrefixMap())
            except TriplifyError:
                outcomes["typed-error"] += 1
                continue
            validate_mapping(m, columns)
            try:
                g, report = convert(m, tables)
            except TriplifyError:
                outcomes["not-converted"] += 1
                continue
            outcomes["converted"] += 1
            want_g, want = convert_every_row(m, tables)
            assert g == want_g
            assert report.skipped_log() == want.skipped_log()
        assert sum(outcomes.values()) == 150
        assert outcomes["converted"], outcomes


# a valid document that uses every rr: property the parser reads
EVERY_READ_PROPERTY = RR + XSD + """
ex:A rr:logicalTable [ rr:tableName "T" ] ;
  rr:subjectMap [ rr:template "http://e.org/a/{ID}" ; rr:class ex:C ; rr:termType rr:IRI ] ;
  rr:predicateObjectMap [
    rr:predicate ex:p ;
    rr:predicateMap [ rr:constant ex:q ] ;
    rr:object ex:o ;
    rr:objectMap [ rr:column "V" ; rr:datatype xsd:integer ],
                 [ rr:column "W" ; rr:language "en" ],
                 [ rr:parentTriplesMap ex:B ; rr:joinCondition [ rr:child "ID" ; rr:parent "ID" ] ]
  ] .
ex:B rr:logicalTable [ rr:tableName "T" ] ; rr:subject ex:theOne .
"""

UNKNOWN = "unknown R2RML property ignored: <http://www.w3.org/ns/r2rml#{}>"


class TestPropertyClassification:
    def test_every_property_the_parser_reads_gives_no_warning(self):
        doc, prefixes = parse_turtle(EVERY_READ_PROPERTY)
        used = {t.p for t in doc if t.p.value.startswith(RR_NS)}
        assert used == _KNOWN - set(_REJECTED) - set(_IGNORED)
        assert parse_mapping(doc, prefixes).warnings == []

    @pytest.mark.parametrize(
        "extra, expected",
        [
            ('rr:madeUp "x"', [UNKNOWN.format("madeUp")]),
            ('rr:IRI "x"', [UNKNOWN.format("IRI")]),  # a term type, not a property
            ('rr:inverseExpression "{ID} = id"',
             ["rr:inverseExpression has no effect without a SQL backend"]),
            ('rr:sqlQuery "SELECT 1"', UnsupportedFeatureError),
        ],
        ids=["made-up", "term-type-as-property", "ignored", "rejected"],
    )
    def test_other_properties(self, extra, expected):
        text = RR + f"""
        ex:M rr:logicalTable [ rr:tableName "T" ] ;
          rr:subjectMap [ rr:template "http://e.org/{{ID}}" ; {extra} ] .
        """
        if isinstance(expected, list):
            assert mapping_of(text).warnings == expected
        else:
            with pytest.raises(expected):
                mapping_of(text)


OWNER = "triples map <http://ex.org/M>: "


class TestParseErrorsNameTheirMap:
    @pytest.mark.parametrize(
        "table, subject, object_map, error, message",
        [
            ('"T"', '[ rr:column ex:ID ]', '[ rr:column "A" ]',
             MappingError, "rr:column must be a literal column name"),
            ('"T"', '[ rr:template ex:ID ]', '[ rr:column "A" ]',
             MappingError, "rr:template must be a literal"),
            ('"T"', '[ rr:template "http://e.org/{ID}" ]', '[ rr:column "A" ; rr:language ex:en ]',
             MappingError, "rr:language must be a literal"),
            ('"T"', '[ rr:template "http://e.org/{ID}" ]', '[ rr:column "A" ; rr:datatype "x" ]',
             MappingError, "rr:datatype must be an IRI"),
            ('"T"', '[ rr:template "http://e.org/{ID}" ]',
             '[ rr:column "A" ; rr:datatype xsd:string ; rr:language "en" ]',
             MappingError, "rr:datatype and rr:language are mutually exclusive"),
            ('"T"', '[ rr:template "http://e.org/{ID}" ]', '[ rr:column "A" ; rr:termType ex:Kind ]',
             MappingError, "unknown rr:termType <http://ex.org/Kind>"),
            ('"T"', '[ rr:template "http://e.org/{ID}" ]',
             '[ rr:column "A" ; rr:termType rr:IRI ; rr:datatype xsd:string ]',
             MappingError, "rr:datatype/rr:language require a literal term map"),
            ('ex:T', '[ rr:template "http://e.org/{ID}" ]', '[ rr:column "A" ]',
             MappingError, "rr:tableName must be a literal"),
            ('"T"', '[ rr:template "http://e.org/a/{ID}" ], [ rr:template "http://e.org/b/{ID}" ]',
             '[ rr:column "A" ]', MappingError, "more than one subject map"),
            ('"T"', None, '[ rr:column "A" ]',
             LiteralSubjectError, "subjects cannot be literals"),
            ('"T"', '[ rr:template "http://e.org/{ID}" ; rr:class "C" ]', '[ rr:column "A" ]',
             MappingError, "rr:class must be an IRI"),
        ],
        ids=[
            "column-not-literal", "template-not-literal", "language-not-literal",
            "datatype-not-iri", "datatype-and-language", "unknown-term-type",
            "datatype-on-iri-map", "table-name-not-literal", "two-subject-maps",
            "literal-constant-subject", "class-not-iri",
        ],
    )
    def test_parse_error(self, table, subject, object_map, error, message):
        subject = f"rr:subjectMap {subject}" if subject is not None else 'rr:subject "x"'
        text = RR + XSD + f"""
        ex:M rr:logicalTable [ rr:tableName {table} ] ;
          {subject} ;
          rr:predicateObjectMap [ rr:predicate ex:p ; rr:objectMap {object_map} ] .
        """
        with pytest.raises(MappingError) as err:
            mapping_of(text)
        assert err.type is error
        assert str(err.value) == OWNER + message


class TestValidateMapping:
    def test_missing_column(self):
        m = mapping_of(MINIMAL)
        diags = validate_mapping(m, {"PATIENT": {"ID"}})
        errors = [d for d in diags if d.severity == "error"]
        assert len(errors) == 1 and "AGE" in errors[0].message

    def test_wrong_template_column(self):
        m = mapping_of(MINIMAL)
        diags = validate_mapping(m, {"PATIENT": {"IDX", "AGE"}})
        errors = [d for d in diags if d.severity == "error"]
        assert len(errors) == 1 and "'ID'" in errors[0].message

    def test_clean_mapping_zero_errors(self):
        m = mapping_of(MINIMAL)
        diags = validate_mapping(m, {"PATIENT": {"ID", "AGE"}})
        assert not [d for d in diags if d.severity == "error"]

    def test_duplicate_classes_warn_never_error(self):
        text = RR + """
        ex:M rr:logicalTable [ rr:tableName "T" ] ;
          rr:subjectMap [ rr:template "http://e.org/{ID}" ; rr:class ex:C, ex:C ] .
        """
        # written twice in Turtle the duplicate collapses in the document
        # graph itself; either way it must not produce an error
        m = mapping_of(text)
        diags = validate_mapping(m, {"T": {"ID"}})
        assert not [d for d in diags if d.severity == "error"]
        # a duplicate surviving into the model (programmatic documents)
        # is downgraded to a warning
        m.triples_maps[0].subject_classes.append(Iri("http://ex.org/C"))
        m.triples_maps[0].subject_classes.append(Iri("http://ex.org/C"))
        diags = validate_mapping(m, {"T": {"ID"}})
        assert any(d.severity == "warning" and "duplicate" in d.message for d in diags)
        assert not [d for d in diags if d.severity == "error"]

    def test_missing_table(self):
        m = mapping_of(MINIMAL)
        diags = validate_mapping(m, {})
        assert any(d.severity == "error" and "PATIENT" in d.message for d in diags)

    def test_unused_table_warns(self):
        m = mapping_of(MINIMAL)
        diags = validate_mapping(m, {"PATIENT": {"ID", "AGE"}, "SPARE": {"X"}})
        assert any(d.severity == "warning" and "SPARE" in d.message for d in diags)

    def test_join_column_missing(self):
        text = RR + """
        ex:Child rr:logicalTable [ rr:tableName "C" ] ;
          rr:subjectMap [ rr:template "http://e.org/c/{ID}" ] ;
          rr:predicateObjectMap [
            rr:predicate ex:link ;
            rr:objectMap [
              rr:parentTriplesMap ex:Parent ;
              rr:joinCondition [ rr:child "PID" ; rr:parent "NOPE" ]
            ]
          ] .
        ex:Parent rr:logicalTable [ rr:tableName "P" ] ;
          rr:subjectMap [ rr:template "http://e.org/p/{ID}" ] .
        """
        m = mapping_of(text)
        diags = validate_mapping(m, {"C": {"ID", "PID"}, "P": {"ID"}})
        errors = [d for d in diags if d.severity == "error"]
        assert len(errors) == 1 and "NOPE" in errors[0].message

    def test_join_child_column_missing_names_the_child_map(self):
        text = RR + """
        ex:Child rr:logicalTable [ rr:tableName "C" ] ;
          rr:subjectMap [ rr:template "http://e.org/c/{ID}" ] ;
          rr:predicateObjectMap [
            rr:predicate ex:link ;
            rr:objectMap [
              rr:parentTriplesMap ex:Parent ;
              rr:joinCondition [ rr:child "NOPE" ; rr:parent "ID" ]
            ]
          ] .
        ex:Parent rr:logicalTable [ rr:tableName "P" ] ;
          rr:subjectMap [ rr:template "http://e.org/p/{ID}" ] .
        """
        diags = validate_mapping(mapping_of(text), {"C": {"ID", "PID"}, "P": {"ID"}})
        assert [str(d) for d in diags] == [
            "error: <http://ex.org/Child>: join child column 'NOPE' absent from 'C'"
        ]

    def test_a_parent_in_the_document_is_checked_once_as_its_own_map(self):
        text = RR + """
        ex:Child rr:logicalTable [ rr:tableName "C" ] ;
          rr:subjectMap [ rr:template "http://e.org/c/{ID}" ] ;
          rr:predicateObjectMap [
            rr:predicate ex:link ;
            rr:objectMap [
              rr:parentTriplesMap ex:Parent ;
              rr:joinCondition [ rr:child "PID" ; rr:parent "PK" ]
            ]
          ] .
        ex:Parent rr:logicalTable [ rr:tableName "P" ] ;
          rr:subjectMap [ rr:template "http://e.org/p/{ID}" ] .
        """
        diags = validate_mapping(mapping_of(text), {"C": {"ID", "PID"}, "P": {"PK"}})
        assert [str(d) for d in diags] == [
            "error: <http://ex.org/Parent>: subject map references column 'ID' absent from table 'P'"
        ]

    def test_a_parent_outside_the_document_gives_one_line_per_problem(self):
        text = RR + """
        ex:C rr:logicalTable [ rr:tableName "P" ] ;
          rr:subjectMap [ rr:template "http://e.org/c/{ID}" ] ;
          rr:predicateObjectMap [
            rr:predicate ex:first ; rr:objectMap [ rr:parentTriplesMap ex:Parent ]
          ] , [
            rr:predicate ex:second ; rr:objectMap [ rr:parentTriplesMap ex:Parent ]
          ] .
        ex:Parent rr:logicalTable [ rr:tableName "P" ] ;
          rr:subjectMap [ rr:template "http://e.org/p/{PK}" ] .
        """
        m = mapping_of(text)
        # the parent is reached only through the child's two references
        m.triples_maps = [tm for tm in m.triples_maps if tm.id == Iri("http://ex.org/C")]
        assert [str(d) for d in validate_mapping(m, {})] == [
            "error: <http://ex.org/C>: logical table 'P' was not provided"
        ]
        assert [str(d) for d in validate_mapping(m, {"P": {"ID"}})] == [
            "error: <http://ex.org/C>: parent subject map references column 'PK'"
            " absent from table 'P'"
        ]

    def test_joinless_cross_table_reference(self):
        text = RR + """
        ex:Child rr:logicalTable [ rr:tableName "C" ] ;
          rr:subjectMap [ rr:template "http://e.org/c/{ID}" ] ;
          rr:predicateObjectMap [
            rr:predicate ex:link ;
            rr:objectMap [ rr:parentTriplesMap ex:Parent ]
          ] .
        ex:Parent rr:logicalTable [ rr:tableName "P" ] ;
          rr:subjectMap [ rr:template "http://e.org/p/{ID}" ] .
        """
        m = mapping_of(text)
        diags = validate_mapping(m, {"C": {"ID"}, "P": {"ID"}})
        assert any(d.severity == "error" and "join" in d.message for d in diags)

    def test_term_map_sources_are_exclusive(self):
        m = mapping_of(MINIMAL)
        for tm in m.triples_maps:
            term_maps = [tm.subject_map] + [
                p.predicate for p in tm.predicate_object_maps
            ] + [p.object for p in tm.predicate_object_maps if not isinstance(p.object, RefObjectMap)]
            for t in term_maps:
                sources = [x for x in (t.constant, t.column, t.template) if x is not None]
                assert len(sources) == 1
