"""Query parsing and evaluation, checked against brute-force enumeration."""

import itertools
import random
import re

import pytest

from triplify import (
    Graph,
    Iri,
    Literal,
    Triple,
    bundled_mapping,
    convert,
    execute,
    generate_synthetic,
    merge_and_query,
    parse_query,
    registry_prefixes,
)
from triplify.errors import (
    ParseError,
    TypeMismatchError,
    UnboundProjectionError,
)
from triplify.query import FilterExpr, Query, Var, _pattern_text, explain
from triplify.terms import (
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_DATE,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
)

from genutil import pooled_graph, random_query_text
from oracles import brute_force, brute_force_solution, solution_tuples

EX = "http://ex.org/"
PREFIXES = registry_prefixes()
PATIENT_CLASS = Iri("http://purl.obolibrary.org/obo/NCIT_C16960")


# --- parsing ----------------------------------------------------------------

class TestParseQuery:
    def test_byte_order_mark_tolerated(self):
        text = "SELECT ?p WHERE { ?p rdf:type ncit:C16960 . }"
        assert parse_query("\ufeff" + text, PREFIXES) == parse_query(text, PREFIXES)

    def test_select_single_pattern(self):
        q = parse_query("SELECT ?p WHERE { ?p rdf:type ncit:C16960 . }", PREFIXES)
        assert q.variables == ("p",)
        assert len(q.patterns) == 1
        assert q.patterns[0].p == RDF_TYPE

    def test_count_star(self):
        q = parse_query(
            "SELECT (COUNT(*) AS ?n) WHERE { ?p roo:P100039 ?t . }", PREFIXES
        )
        assert q.count_var == "n" and q.variables == ()

    def test_unbound_projection(self):
        with pytest.raises(UnboundProjectionError):
            parse_query("SELECT ?x WHERE { ?p roo:P100027 ?a . }", PREFIXES)

    def test_unbound_filter_variable(self):
        with pytest.raises(UnboundProjectionError):
            parse_query(
                "SELECT ?p WHERE { ?p roo:P100027 ?a . FILTER(?zz > 5) }", PREFIXES
            )

    def test_prefix_declarations(self):
        q = parse_query(
            "PREFIX e: <http://ex.org/>\nSELECT ?s WHERE { ?s e:p e:o . }"
        )
        assert q.patterns[0].p == Iri(EX + "p")

    def test_unknown_prefix(self):
        from triplify.errors import UnknownPrefixError

        with pytest.raises(UnknownPrefixError):
            parse_query("SELECT ?s WHERE { ?s nope:p ?o . }")

    def test_relative_iri_has_position(self):
        from triplify.errors import RelativeIriError

        with pytest.raises(RelativeIriError) as err:
            parse_query("SELECT ?s WHERE { ?s <p> ?o . }")
        assert (err.value.line, err.value.column) == (1, 22)
        assert "line 1, column 22" in str(err.value)

    @pytest.mark.parametrize("eol", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
    def test_every_line_end_counts_in_positions(self, eol):
        from triplify.errors import RelativeIriError

        lines = ["SELECT ?s", 'WHERE { ?s <http://ex.org/p> """a', 'b""" .', "?s <p> ?o . }"]
        text = eol.join(lines)
        with pytest.raises(RelativeIriError) as err:
            parse_query(text)
        assert (err.value.line, err.value.column) == (4, 4)
        assert "line 4, column 4" in str(err.value)

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_query("SELECT ?x WHERE {", PREFIXES)
        assert err.value.line >= 1

    def test_ordering_filter_needs_comparable_operand(self):
        with pytest.raises(TypeMismatchError):
            parse_query(
                'SELECT ?p WHERE { ?p roo:P100027 ?a . FILTER(?a > "abc") }', PREFIXES
            )

    def test_a_filter_may_be_followed_by_a_dot(self):
        q = parse_query(
            "SELECT ?p WHERE { ?p roo:P100027 ?a . FILTER(?a > 50) . FILTER(?a < 60) . }",
            PREFIXES,
        )
        assert [(f.op, f.operand.lexical) for f in q.filters] == [(">", "50"), ("<", "60")]

    def test_a_blank_node_predicate_is_a_positioned_error(self):
        with pytest.raises(ParseError, match="blank nodes cannot be predicates") as err:
            parse_query("SELECT ?p WHERE { ?p _:b ?o . }", PREFIXES)
        assert (err.value.line, err.value.column) == (1, 22)

    def test_a_decimal_is_xsd_decimal_and_an_exponent_xsd_double(self):
        # SPARQL 1.1 Query 4.1.2
        q = parse_query("SELECT ?p WHERE { ?p roo:P100027 1.5 . FILTER(?p != 1.0e6) }", PREFIXES)
        assert q.patterns[0].o == Literal("1.5", XSD_DECIMAL)
        assert q.filters[0].operand == Literal("1.0e6", XSD_DOUBLE)

    def test_blank_nodes_act_as_variables(self):
        q = parse_query("SELECT ?p WHERE { ?p roo:P100039 _:t . }", PREFIXES)
        assert isinstance(q.patterns[0].o, Var)

    def test_a_keyword(self):
        q = parse_query("SELECT ?p WHERE { ?p a ncit:C16960 . }", PREFIXES)
        assert q.patterns[0].p == RDF_TYPE

    def test_filters_and_date_operands(self):
        q = parse_query(
            "SELECT ?t WHERE { ?t roo:P100041 ?d . "
            'FILTER(?d >= "2020-01-01"^^xsd:date) }',
            PREFIXES,
        )
        assert q.filters[0].operand.datatype == XSD_DATE


class TestLessThanIsAnOperator:
    """`<` opens an IRI only when an IRIREF follows; otherwise it compares."""

    QUERIES = (
        "PREFIX e: <http://ex.org/> SELECT ?s ?a WHERE { ?s e:age ?a . "
        "FILTER(?a < 65) FILTER(?a > 3) }",
        "PREFIX e: <http://ex.org/> SELECT ?s WHERE { ?s e:day ?d . "
        'FILTER(?d < "2020-01-01"^^<http://www.w3.org/2001/XMLSchema#date>) }',
        "PREFIX e: <http://ex.org/> SELECT ?s WHERE { ?s e:age ?a . "
        "FILTER(?a<65) FILTER(?a>=3) }",
    )

    @staticmethod
    def graph():
        g = Graph()
        for i, age in enumerate((1, 3, 4, 64, 65, 90)):
            g.add(Triple(Iri(EX + f"n{i}"), Iri(EX + "age"), Literal(str(age), XSD_INTEGER)))
        for i, day in enumerate(("2019-12-31", "2020-01-01", "2021-06-15")):
            g.add(Triple(Iri(EX + f"d{i}"), Iri(EX + "day"), Literal(day, XSD_DATE)))
        return g

    @pytest.mark.parametrize("text", QUERIES, ids=("spaced", "iri_after_lt", "unspaced"))
    def test_parses_and_matches_oracle(self, text):
        q = parse_query(text)
        assert q.filters and q.filters[0].op == "<"
        g = self.graph()
        got = solution_tuples(execute(g, q))
        assert got == brute_force_solution(g, q)
        assert got  # each query selects something from the graph

    def test_spaced_comparisons_select_the_open_interval(self):
        q = parse_query(self.QUERIES[0])
        ages = {int(row["a"].lexical) for row in execute(self.graph(), q).rows}
        assert ages == {4, 64}


class TestSharedTermSyntax:
    def test_single_quoted_and_long_strings(self):
        q = parse_query(
            "PREFIX e: <http://ex.org/> SELECT ?s WHERE { ?s e:p 'say \"hi\"' . "
            "?s e:q \"\"\"two\nlines\"\"\" . }"
        )
        assert q.patterns[0].o == Literal('say "hi"')
        assert q.patterns[1].o == Literal("two\nlines")

    def test_backslash_before_line_break_is_an_invalid_escape(self):
        with pytest.raises(ParseError, match="invalid escape") as err:
            parse_query('SELECT ?s\nWHERE { ?s <http://ex.org/p> "a\\\nb" . }')
        assert (err.value.line, err.value.column) == (2, 30)

    def test_surrogate_escape_is_a_positioned_error(self):
        with pytest.raises(ParseError, match="surrogate") as err:
            parse_query('SELECT ?s\nWHERE { ?s <http://ex.org/p> "a\\uD800" . }')
        assert (err.value.line, err.value.column) == (2, 30)

    def test_unicode_escape_in_iri(self):
        q = parse_query("SELECT ?s WHERE { ?s <http://ex.org/caf\\u00E9> ?o . }")
        assert q.patterns[0].p == Iri(EX + "café")

    @pytest.mark.parametrize("local", ["a·b", "a‿b"])
    def test_prefixed_name_holds_every_pn_char(self, local):
        q = parse_query(f"PREFIX e: <http://ex.org/> SELECT ?s WHERE {{ ?s e:{local} ?o . }}")
        assert q.patterns[0].p == Iri(EX + local)

    def test_prefixed_name_char_outside_pn_chars_is_a_positioned_error(self):
        with pytest.raises(ParseError, match="unexpected character '½'") as err:
            parse_query("PREFIX e: <http://ex.org/>\nSELECT ?s WHERE { ?s e:a½b ?o . }")
        assert (err.value.line, err.value.column) == (2, 25)

    def test_turtle_prefix_directive_rejected(self):
        with pytest.raises(ParseError):
            parse_query("@prefix e: <http://ex.org/> . SELECT ?s WHERE { ?s e:p ?o . }")


# --- execution ----------------------------------------------------------------

class TestExecute:
    def test_empty_graph(self):
        q = parse_query("SELECT ?p WHERE { ?p rdf:type ncit:C16960 . }", PREFIXES)
        assert execute(Graph(), q).rows == []
        qc = parse_query("SELECT (COUNT(*) AS ?n) WHERE { ?p rdf:type ncit:C16960 . }", PREFIXES)
        (row,) = execute(Graph(), qc).rows
        assert row["n"] == Literal("0", XSD_INTEGER)

    def test_five_synthetic_patients_count_five(self):
        tables = generate_synthetic(5, seed=42)
        g, _ = convert(bundled_mapping(), tables)
        q = parse_query(
            "SELECT (COUNT(*) AS ?n) WHERE { ?p rdf:type ncit:C16960 . }", PREFIXES
        )
        (row,) = execute(g, q).rows
        assert row["n"] == Literal("5", XSD_INTEGER)
        # match example: 5 type triples for the patient class
        assert len(g.match(None, RDF_TYPE, PATIENT_CLASS)) == 5

    def test_age_filter_matches_source_cells(self):
        tables = generate_synthetic(30, seed=13)
        g, _ = convert(bundled_mapping(), tables)
        q = parse_query(
            "SELECT ?p WHERE { ?p rdf:type ncit:C16960 . ?p roo:P100027 ?a . "
            "FILTER(?a >= 65) }",
            PREFIXES,
        )
        got = {row["p"].value for row in execute(g, q).rows}
        expected = {
            f"https://data.example.org/registry/patient/{r['ID']}"
            for r in tables["PATIENT"].rows
            if int(r["AGE"]) >= 65
        }
        assert got == expected

    def test_runtime_type_mismatch(self):
        # ordering "abc" against a number is an error, which drops the row
        # (SPARQL 1.1 section 17.2) under either direction of the operator
        g = Graph([Triple(Iri(EX + "s"), Iri(EX + "p"), Literal("abc"))])
        for op in (">", "<="):
            q = parse_query(
                f"PREFIX e: <http://ex.org/> SELECT ?v WHERE {{ ?s e:p ?v . FILTER(?v {op} 5) }}"
            )
            assert execute(g, q).rows == [] == brute_force_solution(g, q)

    def test_repeated_variable_in_pattern(self):
        g = Graph(
            [
                Triple(Iri(EX + "x"), Iri(EX + "p"), Iri(EX + "x")),
                Triple(Iri(EX + "x"), Iri(EX + "p"), Iri(EX + "y")),
            ]
        )
        q = parse_query("PREFIX e: <http://ex.org/> SELECT ?s WHERE { ?s e:p ?s . }")
        assert solution_tuples(execute(g, q)) == [(Iri(EX + "x"),)]

    def test_tsv_output(self):
        g = Graph([Triple(Iri(EX + "s"), Iri(EX + "p"), Literal("63", XSD_INTEGER))])
        q = parse_query("PREFIX e: <http://ex.org/> SELECT ?s ?v WHERE { ?s e:p ?v . }")
        assert execute(g, q).to_tsv() == (
            "?s\t?v\n"
            '<http://ex.org/s>\t"63"^^<http://www.w3.org/2001/XMLSchema#integer>\n'
        )

    def test_projection_dedup_but_count_keeps_all(self):
        g = Graph(
            [
                Triple(Iri(EX + "s"), Iri(EX + "p"), Literal("x")),
                Triple(Iri(EX + "s"), Iri(EX + "p"), Literal("y")),
            ]
        )
        q = parse_query("PREFIX e: <http://ex.org/> SELECT ?s WHERE { ?s e:p ?o . }")
        assert solution_tuples(execute(g, q)) == [(Iri(EX + "s"),)]
        qc = parse_query(
            "PREFIX e: <http://ex.org/> SELECT (COUNT(*) AS ?n) WHERE { ?s e:p ?o . }"
        )
        (row,) = execute(g, qc).rows
        assert row["n"].lexical == "2"  # counted before projection-dedup

    def test_language_tagged_literal_not_equal_to_plain(self):
        from triplify.terms import RDF_LANGSTRING

        g = Graph(
            [
                Triple(Iri(EX + "a"), Iri(EX + "p"), Literal("alpha")),
                Triple(Iri(EX + "b"), Iri(EX + "p"), Literal("alpha", RDF_LANGSTRING, "en")),
            ]
        )
        q = parse_query(
            'PREFIX e: <http://ex.org/> SELECT ?s WHERE { ?s e:p ?v . FILTER(?v = "alpha") }'
        )
        assert solution_tuples(execute(g, q)) == [(Iri(EX + "a"),)]
        q_ne = parse_query(
            'PREFIX e: <http://ex.org/> SELECT ?s WHERE { ?s e:p ?v . FILTER(?v != "alpha") }'
        )
        assert solution_tuples(execute(g, q_ne)) == [(Iri(EX + "b"),)]

    def test_numeric_equality_across_integer_and_double(self):
        g = Graph(
            [
                Triple(Iri(EX + "a"), Iri(EX + "p"), Literal("5", XSD_INTEGER)),
                Triple(Iri(EX + "b"), Iri(EX + "p"), Literal("5.0", XSD_DOUBLE)),
            ]
        )
        q = parse_query(
            "PREFIX e: <http://ex.org/> SELECT ?s WHERE { ?s e:p ?v . FILTER(?v = 5) }"
        )
        got = solution_tuples(execute(g, q))
        assert got == [(Iri(EX + "a"),), (Iri(EX + "b"),)]

    def test_decimals_order_with_integers_and_doubles(self):
        values = {
            "one": Literal("1", XSD_INTEGER),
            "decimal": Literal("1.5", XSD_DECIMAL),
            "integer": Literal("2", XSD_INTEGER),
            "double": Literal("2.5", XSD_DOUBLE),
        }
        g = Graph(Triple(Iri(EX + name), Iri(EX + "p"), v) for name, v in values.items())

        def subjects(condition):
            q = parse_query(
                "PREFIX e: <http://ex.org/> "
                f"SELECT ?s WHERE {{ ?s e:p ?v . FILTER(?v {condition}) }}"
            )
            got = solution_tuples(execute(g, q))
            assert got == brute_force_solution(g, q), condition
            return [row[0].value[len(EX) :] for row in got]

        assert subjects("> 1.5") == ["double", "integer"]
        assert subjects(">= 1.5") == ["decimal", "double", "integer"]
        assert subjects("= 1.50") == ["decimal"]
        assert subjects("< 2.0e0") == ["decimal", "one"]

    @staticmethod
    def _kept(value, condition):
        """Whether FILTER(?v condition) keeps a graph's one object, value;
        checked against the brute-force evaluator."""
        g = Graph([Triple(Iri(EX + "s"), Iri(EX + "p"), value)])
        q = parse_query(
            f"PREFIX e: <http://ex.org/> SELECT ?s WHERE {{ ?s e:p ?v . FILTER(?v {condition}) }}"
        )
        got = solution_tuples(execute(g, q))
        assert got == brute_force_solution(g, q), condition
        return bool(got)

    def test_decimals_compare_exactly(self):
        longer = Literal("0.1000000000000000000001", XSD_DECIMAL)
        assert self._kept(longer, "> 0.1")
        assert not self._kept(longer, "= 0.1")
        assert self._kept(Literal("0.1", XSD_DECIMAL), "< 0.1000000000000000000001")
        big = Literal("100000000000000000001", XSD_INTEGER)
        assert self._kept(big, "> 100000000000000000000.0")

    def test_a_decimal_met_by_a_double_compares_as_a_double(self):
        assert self._kept(Literal("0.1", XSD_DECIMAL), "= 0.1e0")
        assert self._kept(Literal("0.1", XSD_DOUBLE), "= 0.1")
        assert not self._kept(Literal("0.1000000000000000000001", XSD_DECIMAL), "> 0.1e0")
        assert self._kept(Literal("NaN", XSD_DOUBLE), "!= 1.5")
        assert not self._kept(Literal("NaN", XSD_DOUBLE), "< 1.5")

    def test_an_integer_meets_a_double_by_their_exact_values(self):
        # 2**53 + 1 has no double; its nearest double is 2**53
        assert self._kept(Literal("9007199254740993", XSD_INTEGER), "> 9007199254740992e0")
        assert not self._kept(Literal("9007199254740993", XSD_INTEGER), "= 9007199254740992e0")

    def test_a_decimal_in_a_pattern_matches_the_decimal_literal(self):
        g = Graph(
            [
                Triple(Iri(EX + "decimal"), Iri(EX + "p"), Literal("1.5", XSD_DECIMAL)),
                Triple(Iri(EX + "double"), Iri(EX + "p"), Literal("1.5", XSD_DOUBLE)),
            ]
        )
        q = parse_query("PREFIX e: <http://ex.org/> SELECT ?s WHERE { ?s e:p 1.5 . }")
        assert solution_tuples(execute(g, q)) == [(Iri(EX + "decimal"),)]

    def test_date_ordering_filter(self):
        g = Graph(
            [
                Triple(Iri(EX + "old"), Iri(EX + "d"), Literal("2019-05-01", XSD_DATE)),
                Triple(Iri(EX + "new"), Iri(EX + "d"), Literal("2022-08-01", XSD_DATE)),
            ]
        )
        q = parse_query(
            "PREFIX e: <http://ex.org/> PREFIX xsd: <http://www.w3.org/2001/XMLSchema#> "
            'SELECT ?s WHERE { ?s e:d ?w . FILTER(?w >= "2020-01-01"^^xsd:date) }'
        )
        assert solution_tuples(execute(g, q)) == [(Iri(EX + "new"),)]

    def test_filters_over_integers_of_any_length(self):
        huge = "9" * 5000  # past the 4,300 digits `int` converts from text by default
        g = Graph(
            [
                Triple(Iri(EX + "big"), Iri(EX + "p"), Literal(huge, XSD_INTEGER)),
                Triple(Iri(EX + "small"), Iri(EX + "p"), Literal("-" + huge, XSD_INTEGER)),
                Triple(Iri(EX + "nan"), Iri(EX + "p"), Literal("NaN", XSD_DOUBLE)),
            ]
        )

        def subjects(condition):
            q = parse_query(
                "PREFIX e: <http://ex.org/> PREFIX xsd: <http://www.w3.org/2001/XMLSchema#> "
                f"SELECT ?s WHERE {{ ?s e:p ?v . FILTER(?v {condition}) }}"
            )
            got = solution_tuples(execute(g, q))
            assert got == brute_force_solution(g, q), condition
            return [row[0].value[len(EX) :] for row in got]

        assert subjects("> 1") == ["big"]
        assert subjects("< 1") == ["small"]
        assert subjects(f">= {huge}") == ["big"]
        assert subjects(f"> {huge}") == []
        assert subjects("!= 1") == ["big", "nan", "small"]
        # nothing orders against NaN, however long the other side
        assert subjects('< "NaN"^^xsd:double') == []
        assert subjects('>= "NaN"^^xsd:double') == []

    @pytest.mark.parametrize(
        "left, op, right",
        [
            ("10000-01-01", ">", "9999-12-31"),
            pytest.param("9" * 5000 + "-01-01", ">", "9999-12-31", id="5000-digit-year"),
            ("2020-01-02+14:00", "<", "2020-01-01-12:00"),
            ("2020-01-01Z", "=", "2020-01-01"),
            ("2020-01-01", "=", "2020-01-01+00:00"),
            ("-0001-12-31", "<", "0000-01-01"),
        ],
    )
    def test_date_filters_order_by_value(self, left, op, right):
        g = Graph([Triple(Iri(EX + "s"), Iri(EX + "d"), Literal(left, XSD_DATE))])
        converse = {">": "<", "<": ">", "=": "="}[op]
        for this, other, holds in (
            (op, right, True),
            (converse, right, op == "="),
            ("!=", right, op != "="),
        ):
            q = parse_query(
                "PREFIX e: <http://ex.org/> PREFIX xsd: <http://www.w3.org/2001/XMLSchema#> "
                f'SELECT ?s WHERE {{ ?s e:d ?w . FILTER(?w {this} "{other}"^^xsd:date) }}'
            )
            got = solution_tuples(execute(g, q))
            assert got == ([(Iri(EX + "s"),)] if holds else []), (left, this, other)
            assert got == brute_force_solution(g, q)

    def test_boolean_filters_compare_by_value(self):
        # "1" is true and "0" false, and false orders before true
        # (op:boolean-equal and op:boolean-less-than); a number is no boolean
        g = Graph(
            Triple(_iri(name), _iri("b"), Literal(lexical, XSD_BOOLEAN))
            for name, lexical in (("t", "true"), ("one", "1"), ("f", "false"), ("zero", "0"))
        )
        g.add(Triple(_iri("n"), _iri("b"), Literal("1", XSD_INTEGER)))
        for condition, want in (
            ("= true", ["one", "t"]),
            ("!= true", ["f", "n", "zero"]),
            ('= "0"^^xsd:boolean', ["f", "zero"]),
            ("< true", ["f", "zero"]),
            (">= false", ["f", "one", "t", "zero"]),
            ("> true", []),
        ):
            q = parse_query(
                "PREFIX e: <http://ex.org/> PREFIX xsd: <http://www.w3.org/2001/XMLSchema#> "
                f"SELECT ?s WHERE {{ ?s e:b ?v . FILTER(?v {condition}) }}"
            )
            got = solution_tuples(execute(g, q))
            assert got == brute_force_solution(g, q), condition
            assert [row[0].value[len(EX) :] for row in got] == want, condition


class TestOracleEquivalence:
    def test_brute_force_small_battery(self):
        # each query runs twice on one graph: the second run reads the
        # per-graph tables the first one built
        rng = random.Random(1234)
        for case in range(40):
            g = pooled_graph(rng, 60)
            q = parse_query(random_query_text(rng))
            want = brute_force_solution(g, q)
            for run in range(2):
                assert solution_tuples(execute(g, q)) == want, f"case {case}, run {run}"

    def test_projections_of_every_width(self):
        # answer rows are made per projection width; each width from 1 to
        # 6, in and out of written order, and a repeated variable, over
        # six variables of a graph small enough to enumerate once
        rng = random.Random(2509)
        nodes = [_iri(f"n{i}") for i in range(3)]
        predicates = [_iri("p0"), _iri("p1")]
        where = "WHERE { ?a ex:p0 ?b . ?b ?c ?d . ?d ex:p1 ?e . ?e ?f ?a . }"
        projections = [
            "?a", "?b ?a", "?a ?b ?c", "?f ?d ?b ?a", "?a ?b ?c ?d ?e",
            "?a ?b ?c ?d ?e ?f", "?f ?e ?d ?c ?b ?a", "?a ?a ?b", "?c ?a ?c ?c",
        ]
        answered = 0
        for case in range(4):
            g = Graph(
                Triple(rng.choice(nodes), rng.choice(predicates), rng.choice(nodes))
                for _ in range(12)
            )
            bindings = brute_force(g, parse_query(f"PREFIX ex: <http://ex.org/> SELECT ?a {where}"))
            for projection in projections:
                q = parse_query(f"PREFIX ex: <http://ex.org/> SELECT {projection} {where}")
                projected = {tuple(b[v] for v in q.variables) for b in bindings}
                want = sorted(projected, key=lambda tup: tuple(t.to_ntriples() for t in tup))
                solution = execute(g, q)
                assert solution_tuples(solution) == want, f"case {case}: {projection}"
                rows = solution.rows
                if len(rows) < 2:
                    continue
                # each row is its own dict: changing one changes neither
                # another nor the next execution's answer
                first = dict(rows[0])
                rows[1][q.variables[0]] = rows[1]["changed"] = Literal("changed")
                assert rows[0] == first
                assert solution_tuples(execute(g, q)) == want, f"case {case}: {projection}"
                answered += 1
        assert answered >= 30, answered

    def test_pattern_order_invariance(self):
        rng = random.Random(4321)
        for case in range(25):
            g = pooled_graph(rng, 60)
            q = parse_query(random_query_text(rng))
            base = solution_tuples(execute(g, q))
            for perm in itertools.permutations(q.patterns):
                q2 = type(q)(q.variables, q.count_var, tuple(perm), q.filters)
                assert solution_tuples(execute(g, q2)) == base, f"case {case}"

    def test_monotonicity_without_filters(self):
        rng = random.Random(77)
        g = pooled_graph(rng, 50)
        q = parse_query(
            "PREFIX ex: <http://ex.org/> SELECT ?s ?o WHERE { ?s ex:p0 ?o . }"
        )
        before = set(solution_tuples(execute(g, q)))
        bigger = Graph(list(g))
        for _ in range(30):
            bigger.add(
                Triple(
                    Iri(EX + f"n{rng.randint(0, 4)}"),
                    Iri(EX + f"p{rng.randint(0, 2)}"),
                    Iri(EX + f"n{rng.randint(0, 4)}"),
                )
            )
        after = set(solution_tuples(execute(bigger, q)))
        assert before <= after

    def test_count_equals_full_projection_rows(self):
        rng = random.Random(88)
        for _ in range(15):
            g = pooled_graph(rng, 50)
            q = parse_query(
                "PREFIX ex: <http://ex.org/> "
                "SELECT ?s ?o WHERE { ?s ex:p1 ?o . ?o ex:p0 ?s . }"
            )
            qc = parse_query(
                "PREFIX ex: <http://ex.org/> "
                "SELECT (COUNT(*) AS ?n) WHERE { ?s ex:p1 ?o . ?o ex:p0 ?s . }"
            )
            (row,) = execute(g, qc).rows
            assert int(row["n"].lexical) == len(execute(g, q).rows)


def _iri(name):
    return Iri(EX + name)


def _with_filters(q, rng):
    """q plus one to three random filters on its variables, some of which
    order terms of another kind, an error that drops the row."""
    names = sorted(
        {t.name for pat in q.patterns for t in (pat.s, pat.p, pat.o) if isinstance(t, Var)}
    )
    operands = (
        Literal("5", XSD_INTEGER),
        Literal("1.5", XSD_DOUBLE),
        Literal("2020-06-01", XSD_DATE),
        Literal("alpha"),
    )
    extra = []
    for _ in range(rng.randint(1, 3)):
        operand = rng.choice(operands)
        ops = ("=", "!=") if operand.datatype == XSD_STRING else ("=", "!=", "<", ">=")
        extra.append(FilterExpr(Var(rng.choice(names)), rng.choice(ops), operand))
    return Query(q.variables, q.count_var, q.patterns, q.filters + tuple(extra))


def _orders_another_kind(f: FilterExpr, term) -> bool:
    """Whether the filter orders a term of another kind than its operand."""
    kinds = {XSD_INTEGER: "number", XSD_DECIMAL: "number", XSD_DOUBLE: "number", XSD_DATE: "date"}
    kind = kinds.get(term.datatype) if isinstance(term, Literal) else None
    return f.op in ("<", "<=", ">", ">=") and kind != kinds[f.operand.datatype]


class TestPerGraphTables:
    """Answers hold terms from the graph's table of made terms and FILTERs
    read its table of values; both are filled for the IDs a query's rows
    hold, and follow the graph's writes."""

    QUERY = "PREFIX e: <http://ex.org/> SELECT ?s ?v WHERE { ?s e:p ?v . FILTER(?v > 3) }"

    @staticmethod
    def _graph() -> Graph:
        return Graph(
            Triple(Iri(EX + f"s{i}"), Iri(EX + "p"), Literal(str(i), XSD_INTEGER))
            for i in range(8)
        )

    def test_a_write_between_queries_is_seen_by_the_next(self):
        g = self._graph()
        q = parse_query(self.QUERY)
        before = execute(g, q).rows
        assert set(g._tables) == {"terms", "values"}
        # a subject that spells before every other, and a value that passes
        early = Iri("http://a.org/s")
        g.add(Triple(early, Iri(EX + "p"), Literal("9.5", XSD_DECIMAL)))
        after = execute(g, q).rows
        assert after == execute(Graph(list(g)), q).rows
        assert after[0] == {"s": early, "v": Literal("9.5", XSD_DECIMAL)}
        assert after[1:] == before

    def test_ordering_a_term_without_a_value_drops_its_row_every_time(self):
        q = parse_query(self.QUERY)
        want = execute(self._graph(), q).rows
        assert len(want) == 4
        for odd in (Iri(EX + "o"), Literal("abc")):
            g = self._graph()
            g.add(Triple(Iri(EX + "s9"), Iri(EX + "p"), odd))
            for _ in range(2):
                assert execute(g, q).rows == want
            assert "values" in g._tables
            # = and != on it are False and True, reading the same table
            eq = parse_query(self.QUERY.replace("> 3", "= 3"))
            ne = parse_query(self.QUERY.replace("> 3", "!= 3"))
            assert len(execute(g, eq).rows) == 1
            assert len(execute(g, ne).rows) == 8

    def test_a_count_makes_no_term_and_an_answer_only_its_own(self):
        g = self._graph()
        execute(g, parse_query("PREFIX e: <http://ex.org/> SELECT (COUNT(*) AS ?n) WHERE { ?s e:p ?v . }"))
        assert g._tables == {}
        (row,) = execute(g, parse_query("PREFIX e: <http://ex.org/> SELECT ?v WHERE { e:s3 e:p ?v . }")).rows
        assert g._tables == {"terms": {g._ids[row["v"].to_ntriples()]: row["v"]}}
        rows = execute(g, parse_query("PREFIX e: <http://ex.org/> SELECT ?v WHERE { ?s e:p ?v . }")).rows
        assert set(g._tables) == {"terms"} and len(g._tables["terms"]) == len(rows) == 8

    def test_a_query_fills_the_tables_only_for_its_rows(self):
        g = self._graph()
        g.add(Triple(Iri(EX + "other"), Iri(EX + "q"), Literal("1", XSD_INTEGER)))
        rows = execute(g, parse_query(self.QUERY)).rows
        ids = g._ids
        # the filter meets each ?v; terms are made for those and the answers
        values = {ids[Literal(str(i), XSD_INTEGER).to_ntriples()] for i in range(8)}
        assert set(g._tables["values"]) == values
        answers = {ids[term.to_ntriples()] for row in rows for term in row.values()}
        assert set(g._tables["terms"]) == values | answers
        assert len(rows) == 4


class TestPlannedJoins:
    """Whatever order the planner runs patterns and filters in, answers
    are those of testing every filter after all patterns."""

    def test_dropping_is_pattern_order_invariant(self):
        rng = random.Random(8080)
        dropped = 0
        for case in range(60):
            g = pooled_graph(rng, 60)
            q = _with_filters(parse_query(random_query_text(rng)), rng)
            want = brute_force_solution(g, q)
            # a case where some filter orders a term of another kind on a
            # row the patterns give, so dropping that row decides the answer
            unfiltered = brute_force(g, Query(q.variables, q.count_var, q.patterns, ()))
            dropped += any(
                _orders_another_kind(f, b[f.var.name]) for b in unfiltered for f in q.filters
            )
            for perm in itertools.permutations(q.patterns):
                q2 = Query(q.variables, q.count_var, tuple(perm), q.filters)
                assert solution_tuples(execute(g, q2)) == want, f"case {case}"
        assert 0 < dropped < 60  # the battery holds both kinds of case

    def test_filter_raising_on_a_row_a_later_pattern_removes(self):
        # e:p has the smaller bucket, so it runs first and the filter on ?v
        # meets "abc", an error that drops that row there; e:q would remove
        # it too
        g = Graph(
            [
                Triple(_iri("a"), _iri("p"), Literal("abc")),
                Triple(_iri("b"), _iri("p"), Literal("7", XSD_INTEGER)),
                *(Triple(_iri(s), _iri("q"), _iri("x")) for s in ("b", "c", "d")),
            ]
        )
        text = "PREFIX e: <http://ex.org/> SELECT ?s WHERE {{ {} {} FILTER(?v > 3) }}"
        pv, qo = "?s e:p ?v .", "?s e:q ?o ."
        for body in ((pv, qo), (qo, pv)):
            q = parse_query(text.format(*body))
            assert solution_tuples(execute(g, q)) == [(_iri("b"),)]
            _, plan = explain(g, q)
            assert plan["steps"][0]["pattern"].endswith("<http://ex.org/p> ?v")

    @pytest.mark.parametrize(
        "filters, ordering_first",
        [
            ('FILTER(?v > 3) FILTER(?w = "y")', True),
            ('FILTER(?w = "y") FILTER(?v > 3)', False),
            ('FILTER(?v > 3) FILTER(?v = "y")', True),
            ('FILTER(?v = "y") FILTER(?v > 3)', False),
        ],
    )
    def test_filter_order_on_one_row(self, filters, ordering_first):
        # on the row of e:a, ?v > 3 is an error and the equality is False:
        # each drops the row at the step that binds its variable, whichever
        # is written first and whether ?v or ?w is bound first
        row = [
            Triple(_iri("a"), _iri("p"), Literal("abc")),
            Triple(_iri("a"), _iri("r"), Literal("x")),
        ]
        more_p = [Triple(_iri(s), _iri("p"), Literal("5", XSD_INTEGER)) for s in "bc"]
        more_r = [Triple(_iri(s), _iri("r"), Literal("x")) for s in "bc"]
        written = re.findall(r"FILTER\([^)]*\)", filters)
        ordering, equality = written if ordering_first else written[::-1]
        assert ordering == "FILTER(?v > 3)"
        for g, first in ((Graph(row + more_r), "p"), (Graph(row + more_p), "r")):
            for body in ("?s e:p ?v . ?s e:r ?w .", "?s e:r ?w . ?s e:p ?v ."):
                text = f"PREFIX e: <http://ex.org/> SELECT ?s WHERE {{ {body} }}"
                steps = explain(g, parse_query(text))[1]["steps"]
                assert f"<http://ex.org/{first}>" in steps[0]["pattern"]
                # the variable the first step binds; rows after each step
                # when a filter on it runs there, and when none does
                bound = "?v" if first == "p" else "?w"
                for tested in (filters, ordering, equality):
                    q = parse_query(text.replace("}", tested + " }"))
                    solution, plan = explain(g, q)
                    assert solution.rows == [] == brute_force_solution(g, q)
                    rows = [0, None] if f"({bound} " in tested else [1, 0]
                    assert [s["rows"] for s in plan["steps"]] == rows, tested

    def test_a_filter_runs_at_the_step_binding_its_variable(self):
        # e:p has the smaller bucket, so ?v is bound first: the filter on
        # it, though written second, cuts the rows there, before ?w is bound
        g = Graph(
            [Triple(_iri(s), _iri("p"), Literal(v, XSD_INTEGER)) for s, v in zip("abc", "179")]
            + [Triple(_iri(s), _iri("q"), Literal(w)) for s, w in zip("abcde", "xxyxx")]
        )
        q = parse_query(
            "PREFIX e: <http://ex.org/> SELECT ?s WHERE "
            '{ ?s e:q ?w . ?s e:p ?v . FILTER(?w = "x") FILTER(?v > 3) }'
        )
        solution, plan = explain(g, q)
        assert solution_tuples(solution) == [(_iri("b"),)] == brute_force_solution(g, q)
        assert [(s["pattern"], s["rows"]) for s in plan["steps"]] == [
            ("?s <http://ex.org/p> ?v", 2),
            ("?s <http://ex.org/q> ?w", 1),
        ]

    def test_repeated_variable_bound_or_not(self):
        g = Graph(
            [
                Triple(_iri("x"), _iri("p"), _iri("x")),
                Triple(_iri("x"), _iri("p"), _iri("y")),
                Triple(_iri("y"), _iri("p"), _iri("y")),
                Triple(_iri("z"), _iri("p"), _iri("z")),
                Triple(_iri("x"), _iri("q"), _iri("o")),
                Triple(_iri("y"), _iri("q"), _iri("o")),
                Triple(_iri("p"), _iri("p"), _iri("p")),
            ]
        )
        cases = {
            # ?s unbound: one step matches the pattern against itself
            "SELECT ?s WHERE { ?s e:p ?s . }": ["p", "x", "y", "z"],
            # e:q has the smaller bucket, so ?s is bound before ?s e:p ?s
            "SELECT ?s WHERE { ?s e:p ?s . ?s e:q e:o . }": ["x", "y"],
            "SELECT ?s WHERE { ?s ?s ?s . }": ["p"],
            "SELECT ?s ?o WHERE { ?s e:q ?o . ?s e:p ?s . }": None,
            # ?r is bound first, but e:o's bucket (2) is below ?r's mean (3.5),
            # so the second step's candidates come from e:o's bucket
            "SELECT ?s WHERE { e:x ?r e:o . ?s ?r e:o . }": ["x", "y"],
            # no position of ?b ?b ?b is bound: every triple is a candidate
            "SELECT ?a ?b WHERE { ?a e:q e:o . ?b ?b ?b . }": None,
        }
        for text, want in cases.items():
            q = parse_query("PREFIX e: <http://ex.org/> " + text)
            got = solution_tuples(execute(g, q))
            assert got == brute_force_solution(g, q), text
            if want is not None:
                assert got == [(_iri(n),) for n in want], text
        _, plan = explain(g, parse_query(
            "PREFIX e: <http://ex.org/> SELECT ?s WHERE { ?s e:p ?s . ?s e:q e:o . }"
        ))
        assert [s["pattern"] for s in plan["steps"]] == [
            "?s <http://ex.org/q> <http://ex.org/o>",
            "?s <http://ex.org/p> ?s",
        ]
        _, plan = explain(g, parse_query(
            "PREFIX e: <http://ex.org/> SELECT ?s WHERE { e:x ?r e:o . ?s ?r e:o . }"
        ))
        assert [s["estimate"] for s in plan["steps"]] == [2, 2]  # e:o's bucket, twice

    def test_absent_constant_ends_the_plan_at_its_step(self):
        g = Graph([Triple(_iri(f"n{i}"), _iri("p"), _iri(f"n{i + 1}")) for i in range(20)])
        q = parse_query(
            "PREFIX e: <http://ex.org/> SELECT ?a ?c WHERE "
            "{ ?a e:p ?b . ?b e:p ?c . ?c e:absent ?d . FILTER(?d > 3) }"
        )
        solution, plan = explain(g, q)
        assert solution.rows == []
        assert plan["steps"][0] == {
            "pattern": "?c <http://ex.org/absent> ?d",
            "estimate": 0,
            "access": "p",
            "rows": 0,
        }
        assert [s["rows"] for s in plan["steps"][1:]] == [None, None]

    def test_explain_orders_by_estimate_and_counts_rows(self):
        g = Graph(
            [Triple(_iri(f"n{i}"), _iri("big"), Literal(str(i), XSD_INTEGER)) for i in range(10)]
            + [Triple(_iri(f"n{i}"), _iri("small"), _iri("c")) for i in range(3)]
            + [Triple(_iri(f"n{i}"), _iri("tie"), _iri("c")) for i in range(2, 5)]
        )
        q = parse_query(
            "PREFIX e: <http://ex.org/> SELECT ?s ?v WHERE "
            "{ ?s e:big ?v . ?s e:small e:c . FILTER(?v >= 1) }"
        )
        solution, plan = explain(g, q)
        assert solution.rows == execute(g, q).rows
        assert plan == {
            "steps": [
                {
                    "pattern": "?s <http://ex.org/small> <http://ex.org/c>",
                    "estimate": 3,
                    "access": "p",
                    "rows": 3,
                },
                # bound ?s: 16 triples over 10 subjects
                {"pattern": "?s <http://ex.org/big> ?v", "estimate": 1.6, "access": "s", "rows": 2},
            ]
        }
        # equal estimates keep written order
        for first, second in (("small", "tie"), ("tie", "small")):
            q = parse_query(
                "PREFIX e: <http://ex.org/> "
                f"SELECT ?s WHERE {{ ?s e:{first} ?o . ?s e:{second} ?o . }}"
            )
            steps = explain(g, q)[1]["steps"]
            assert steps[0]["pattern"] == f"?s <http://ex.org/{first}> ?o"
            assert [s["rows"] for s in steps] == [3, 1]


def _step_form_query(rng):
    """A query of 1-3 patterns over the pooled universe, drawn so that the
    step forms random_query_text rarely gives come up: constants-only
    patterns, patterns whose variables an earlier step binds, a variable
    repeated in one pattern, a variable bound to a literal reaching a
    subject or predicate position, and constants no pooled graph holds."""
    variables = ["?a", "?b", "?c"]
    nodes = [f"ex:n{i}" for i in range(5)] + ["ex:absent"]
    predicates = [f"ex:p{i}" for i in range(3)] + ["ex:absent"]
    literals = ['"alpha"', "5", '"gamma"']
    patterns = []
    for _ in range(rng.randint(1, 3)):
        s = rng.choice(variables * 2 + nodes)
        p = rng.choice(variables + predicates * 2)
        o = rng.choice(variables * 2 + nodes + literals)
        patterns.append(f"{s} {p} {o} .")
    used = sorted({word for pat in patterns for word in pat.split() if word in variables})
    if not used:
        patterns.append("?a ex:p0 ?b .")
        used = ["?a", "?b"]
    head = rng.choice([" ".join(used), rng.choice(used), "(COUNT(*) AS ?n)"])
    return f"PREFIX ex: <http://ex.org/> SELECT {head} WHERE {{ {' '.join(patterns)} }}"


# The forms a random draw seldom gives, each run on every graph of the
# battery below.
_RARE_STEP_FORMS = (
    # constants only
    "SELECT ?a WHERE { ex:n0 ex:p0 ex:n1 . ?a ex:p1 ?b . }",
    # every variable bound earlier: a key lookup per row
    "SELECT ?a ?b WHERE { ?a ex:p0 ?b . ?b ex:p1 ?a . }",
    "SELECT ?a WHERE { ?a ex:p2 ex:n3 . ?a ex:p0 ?a . }",
    # a repeat of a fresh variable
    "SELECT ?a WHERE { ?a ex:p0 ?a . }",
    "SELECT ?a ?b WHERE { ?b ex:p1 ex:n2 . ?a ?b ?a . }",
    # a variable bound to a literal, in a subject or a predicate position
    "SELECT ?a ?b WHERE { ex:n1 ex:p0 ?a . ?a ex:p1 ?b . }",
    "SELECT ?a ?b WHERE { ex:n2 ?p ?a . ?b ?a ?c . }",
    "SELECT ?a ?b WHERE { ?b ex:p2 ?a . ?a ?b ex:n0 . }",
    # a constant absent from the graph, in a lookup and in an index read
    'SELECT ?a WHERE { ?a ex:p0 ?b . ?a ex:p1 "gamma" . }',
    "SELECT ?a WHERE { ?a ex:absent ?b . ?a ex:p0 ?c . }",
    # no bound position: a scan, per row
    "SELECT ?a ?b ?c ?d WHERE { ex:n1 ex:p0 ?a . ?b ?c ?d . }",
)


class TestStepForms:
    """Each form a step can take (a key lookup, an index bucket, a scan;
    tested positions and repeats) against brute-force enumeration."""

    def test_battery_against_brute_force(self):
        rng = random.Random(1818)
        accesses = {"key": 0, "s": 0, "p": 0, "o": 0, "all": 0}
        cases = 0
        for case in range(300):
            g = pooled_graph(rng, 40)
            texts = [random_query_text(rng), _step_form_query(rng)]
            if case % 30 == 0:
                texts += ["PREFIX ex: <http://ex.org/> " + t for t in _RARE_STEP_FORMS]
            for text in texts:
                q = parse_query(text)
                if rng.random() < 0.3:
                    q = _with_filters(q, rng)
                solution, plan = explain(g, q)
                want = brute_force_solution(g, q)
                assert solution_tuples(solution) == want, f"case {case}: {text}"
                for step in plan["steps"]:
                    accesses[step["access"]] += 1
                cases += 1
        assert cases >= 500
        assert all(accesses.values()), accesses

    def test_explain_rows_count_the_planned_prefix(self):
        g = pooled_graph(random.Random(9), 60)
        q = parse_query(
            "PREFIX ex: <http://ex.org/> SELECT ?a ?c WHERE "
            "{ ?a ex:p0 ?b . ?b ex:p1 ?c . ?c ex:p2 ?a . ?a ?p ex:n1 . }"
        )
        by_text = {_pattern_text(pat): pat for pat in q.patterns}
        steps = explain(g, q)[1]["steps"]
        assert [s["access"] for s in steps] == ["p", "o", "key", "s"]
        assert steps[-1]["rows"] > 0
        planned = [by_text[s["pattern"]] for s in steps]
        for i, step in enumerate(steps):
            prefix = Query((), "n", tuple(planned[: i + 1]), ())
            assert step["rows"] == len(brute_force(g, prefix)), step


class TestMergeAndQuery:
    def test_two_disjoint_patient_graphs(self):
        g1, _ = convert(bundled_mapping(), _centre_tables("A"))
        g2, _ = convert(bundled_mapping(), _centre_tables("B"))
        q = parse_query(
            "SELECT (COUNT(*) AS ?n) WHERE { ?p rdf:type ncit:C16960 . }", PREFIXES
        )
        (row,) = merge_and_query([g1, g2], q).rows
        assert row["n"] == Literal("2", XSD_INTEGER)

    def test_self_merge_is_identity(self):
        g, _ = convert(bundled_mapping(), generate_synthetic(4, seed=6))
        q = parse_query("SELECT ?p WHERE { ?p rdf:type ncit:C16960 . }", PREFIXES)
        assert merge_and_query([g, g], q).rows == execute(g, q).rows

    def test_shared_triples_union(self):
        shared = Triple(Iri(EX + "C"), RDF_TYPE, Iri(EX + "Class"))
        g1 = Graph([shared, Triple(Iri(EX + "a"), Iri(EX + "p"), Iri(EX + "C"))])
        g2 = Graph([shared, Triple(Iri(EX + "b"), Iri(EX + "p"), Iri(EX + "C"))])
        from triplify import merge

        merged = merge([g1, g2])
        assert len(merged) == len(g1) + len(g2) - 1
        q = parse_query("PREFIX e: <http://ex.org/> SELECT ?s WHERE { ?s e:p e:C . }")
        got = solution_tuples(merge_and_query([g1, g2], q))
        assert got == [(Iri(EX + "a"),), (Iri(EX + "b"),)]


def _centre_tables(prefix):
    tables = generate_synthetic(1, seed=sum(ord(c) for c in prefix))
    for row in tables["PATIENT"].rows:
        row["ID"] = prefix + row["ID"]
    for row in tables["TREATMENT"].rows:
        row["ID"] = prefix + row["ID"]
        row["PATIENT_ID"] = prefix + row["PATIENT_ID"]
    return tables
