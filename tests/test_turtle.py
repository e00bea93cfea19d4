"""Turtle subset: everything an R2RML document needs, nothing more."""

import random

import pytest

from triplify import Iri, Literal, Triple, parse_ntriples, parse_turtle, serialize_ntriples
from triplify.errors import ParseError, RelativeIriError, UnknownPrefixError
from triplify.terms import RDF_TYPE, XSD_BOOLEAN, XSD_INTEGER
from triplify.turtle import MAX_NESTING

from genutil import random_graph


def triples(text, base=None):
    g, _ = parse_turtle(text, base)
    return g


class TestBasics:
    def test_byte_order_mark_tolerated(self):
        text = "@prefix ex: <http://e.org/> .\nex:s ex:p ex:o .\n"
        assert triples("\ufeff" + text) == triples(text)
        assert len(triples(text)) == 1

    def test_single_triple(self):
        g = triples("@prefix ex: <http://e.org/> . ex:s ex:p ex:o .")
        assert len(g) == 1
        assert Triple(Iri("http://e.org/s"), Iri("http://e.org/p"), Iri("http://e.org/o")) in g

    def test_a_expands_to_rdf_type(self):
        g = triples("@prefix ex: <http://e.org/> . ex:s a ex:C .")
        (t,) = list(g)
        assert t.p == RDF_TYPE

    def test_typed_literal(self):
        g = triples(
            "@prefix ex: <http://e.org/> . "
            "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> . "
            'ex:s ex:p "63"^^xsd:integer .'
        )
        (t,) = list(g)
        assert t.o == Literal("63", XSD_INTEGER)

    def test_predicate_and_object_lists(self):
        g = triples(
            "@prefix ex: <http://e.org/> . "
            'ex:s ex:p "a", "b" ; ex:q ex:o .'
        )
        assert len(g) == 3

    def test_trailing_semicolon_tolerated(self):
        g = triples("@prefix ex: <http://e.org/> . ex:s ex:p ex:o ; .")
        assert len(g) == 1

    def test_integer_boolean_shortcuts(self):
        g = triples("@prefix ex: <http://e.org/> . ex:s ex:p 42 ; ex:q true .")
        objects = {t.o for t in g}
        assert Literal("42", XSD_INTEGER) in objects
        assert Literal("true", XSD_BOOLEAN) in objects

    @pytest.mark.parametrize(
        "number, datatype",
        [("1.5", "decimal"), ("-.5", "decimal"), ("1.0e6", "double"), ("2E-3", "double")],
    )
    def test_decimal_and_double_shortcuts(self, number, datatype):
        # Turtle 1.1 reads a DECIMAL as xsd:decimal and a DOUBLE as xsd:double
        xsd = "http://www.w3.org/2001/XMLSchema#"
        short = triples(f"@prefix ex: <http://e.org/> . ex:s ex:p {number} .")
        typed = triples(
            f"@prefix ex: <http://e.org/> . @prefix xsd: <{xsd}> . "
            f'ex:s ex:p "{number}"^^xsd:{datatype} .'
        )
        line = f'<http://e.org/s> <http://e.org/p> "{number}"^^<{xsd}{datatype}> .\n'
        assert short == typed == parse_ntriples(line)
        assert serialize_ntriples(short) == line

    def test_language_tag(self):
        g = triples('@prefix ex: <http://e.org/> . ex:s ex:p "hoi"@nl .')
        (t,) = list(g)
        assert t.o.language == "nl"

    def test_comments_ignored(self):
        g = triples(
            "# leading comment\n"
            "@prefix ex: <http://e.org/> . # bound\n"
            "ex:s ex:p ex:o . # done\n"
        )
        assert len(g) == 1

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_a_comment_ends_at_any_line_end(self, end):
        text = end.join(
            [
                "@prefix ex: <http://e.org/> . # bound",
                "ex:s ex:p ex:o . # first",
                "ex:s ex:p ex:o2 .",
            ]
        )
        assert len(triples(text)) == 2

    def test_long_string(self):
        g = triples('@prefix ex: <http://e.org/> . ex:s ex:p """line one\nline "two"""" .')
        (t,) = list(g)
        assert t.o.lexical == 'line one\nline "two"'


class TestBlankNodes:
    def test_anonymous_nodes_get_fresh_labels(self):
        g = triples("@prefix ex: <http://e.org/> . ex:s ex:p [ ex:q ex:o ] , [ ] .")
        labels = {t.o.label for t in g if t.p == Iri("http://e.org/p")}
        assert len(labels) == 2

    def test_nested_property_lists(self):
        g = triples(
            "@prefix ex: <http://e.org/> . ex:s ex:p [ ex:q [ ex:r ex:o ] ] ."
        )
        assert len(g) == 3

    def test_labeled_blank_nodes_keep_labels(self):
        g = triples("@prefix ex: <http://e.org/> . _:x ex:p _:y .")
        (t,) = list(g)
        assert t.s.label == "x" and t.o.label == "y"

    def test_generated_labels_avoid_explicit_ones(self):
        g = triples("@prefix ex: <http://e.org/> . _:b0 ex:p [ ex:q ex:o ] .")
        labels = {term.label for t in g for term in (t.s, t.o) if hasattr(term, "label")}
        assert "b0" in labels and len(labels) == 2

    def test_bnode_as_subject_statement(self):
        g = triples("@prefix ex: <http://e.org/> . [ ex:p ex:o ] .")
        assert len(g) == 1

    def test_nesting_up_to_the_limit_parses(self):
        depth = MAX_NESTING
        text = "@prefix ex: <http://e.org/> .\nex:s ex:p "
        text += "[ ex:p " * depth + "ex:o" + " ]" * depth + " ."
        assert len(triples(text)) == depth + 1

    @pytest.mark.parametrize("as_subject", [False, True])
    def test_nesting_past_the_limit_is_a_positioned_error(self, as_subject):
        # 250 levels overflowed the recursive descent with a RecursionError
        depth = 250
        head = "[ ex:p " if as_subject else "ex:s ex:p "
        text = "@prefix ex: <http://e.org/> .\n" + head + "[ ex:p " * depth + "ex:o" + " ]" * depth
        text += " ] ." if as_subject else " ."
        with pytest.raises(ParseError) as err:
            parse_turtle(text)
        # at the `[` that opens level MAX_NESTING + 1
        column = len(head) + len("[ ex:p ") * (MAX_NESTING - as_subject) + 1
        assert (err.value.line, err.value.column) == (2, column)
        assert "nested" in str(err.value)


class TestDirectives:
    def test_base_resolution(self):
        g = triples("@base <http://e.org/dir/> . <x> <p:y> <../z> .")
        (t,) = list(g)
        assert (t.s, t.o) == (Iri("http://e.org/dir/x"), Iri("http://e.org/z"))

    def test_empty_reference_is_the_base_document(self):
        g = triples("@base <http://e.org/dir/doc#top> . <> <http://e.org/p> <#sec> .")
        (t,) = list(g)
        assert (t.s, t.o) == (Iri("http://e.org/dir/doc"), Iri("http://e.org/dir/doc#sec"))

    def test_relative_without_base(self):
        with pytest.raises(RelativeIriError):
            triples("<x> <http://e.org/p> <http://e.org/o> .")

    def test_base_parameter(self):
        g = triples("<x> <http://e.org/p> <http://e.org/o> .", base=Iri("http://b.org/d/"))
        (t,) = list(g)
        assert t.s == Iri("http://b.org/d/x")

    def test_unknown_prefix(self):
        with pytest.raises(UnknownPrefixError):
            triples("ex:s ex:p ex:o .")

    @pytest.mark.parametrize("prefix, local", [("ex", "a·b"), ("ex", "a‿b"), ("e·x", "a"), ("e‿x", "a")])
    def test_prefixed_name_holds_every_pn_char(self, prefix, local):
        (t,) = list(triples(f"@prefix {prefix}: <http://e.org/> . {prefix}:{local} {prefix}:p {prefix}:o ."))
        assert t.s == Iri(f"http://e.org/{local}")

    def test_prefixed_name_char_outside_pn_chars_is_a_positioned_error(self):
        # U+00BD is a Unicode number, so `\w`, but in no PN_CHARS range
        with pytest.raises(ParseError, match="unexpected character '½'") as err:
            triples("@prefix ex: <http://e.org/> .\nex:s ex:p ex:a½b .")
        assert (err.value.line, err.value.column) == (2, 15)

    def test_unknown_prefix_has_position(self):
        with pytest.raises(UnknownPrefixError) as err:
            triples("@prefix ex: <http://e.org/> .\n\nex:s ex:p nope:o .")
        assert (err.value.line, err.value.column) == (3, 11)
        assert "line 3, column 11" in str(err.value)

    @pytest.mark.parametrize("eol", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
    def test_every_line_end_counts_in_positions(self, eol):
        text = eol.join(["@prefix ex: <http://e.org/> .", "ex:s ex:p ex:o .", "ex:s ex:p nope:o ."])
        with pytest.raises(UnknownPrefixError) as err:
            triples(text)
        assert (err.value.line, err.value.column) == (3, 11)
        assert "line 3, column 11" in str(err.value)

    @pytest.mark.parametrize("eol", ["\r", "\r\n"], ids=["cr", "crlf"])
    def test_line_end_in_a_long_string_counts_and_stays_in_its_value(self, eol):
        text = f'@prefix ex: <http://e.org/> .{eol}ex:s ex:p """a{eol}b""" ;{eol}  ex:q nope:o .'
        with pytest.raises(UnknownPrefixError) as err:
            triples(text)
        assert (err.value.line, err.value.column) == (4, 8)
        g = triples(text.replace("nope:o", "ex:o"))
        assert Literal(f"a{eol}b") in {t.o for t in g}

    def test_relative_iri_has_position(self):
        with pytest.raises(RelativeIriError) as err:
            triples("<http://e.org/s> <http://e.org/p>\n  <o> .")
        assert (err.value.line, err.value.column) == (2, 3)

    def test_prefix_rebinding(self):
        g = triples(
            "@prefix ex: <http://one.org/> . ex:s ex:p ex:o . "
            "@prefix ex: <http://two.org/> . ex:s ex:p ex:o ."
        )
        subjects = {t.s.value for t in g}
        assert subjects == {"http://one.org/s", "http://two.org/s"}


class TestErrors:
    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            triples("@prefix ex: <http://e.org/> .\nex:s ex:p .")
        assert err.value.line == 2

    def test_collections_rejected(self):
        with pytest.raises(ParseError):
            triples("@prefix ex: <http://e.org/> . ex:s ex:p (1 2) .")

    def test_unterminated_iri(self):
        with pytest.raises(ParseError):
            triples("@prefix ex: <http://e.org/> . ex:s ex:p <http://e.org/o .")

    def test_missing_dot(self):
        with pytest.raises(ParseError):
            triples("@prefix ex: <http://e.org/> . ex:s ex:p ex:o")

    def test_bad_escape_has_column(self):
        with pytest.raises(ParseError) as err:
            triples('<http://e.org/s> <http://e.org/p> "a\\q" .')
        assert (err.value.line, err.value.column) == (1, 35)

    def test_surrogate_escape_is_a_positioned_error(self):
        with pytest.raises(ParseError, match="surrogate") as err:
            triples('<http://e.org/s> <http://e.org/p> "a\\uD800" .')
        assert (err.value.line, err.value.column) == (1, 35)
        with pytest.raises(ParseError, match="surrogate") as err:
            triples('<http://e.org/s>\n<http://e.org/p\\uDBFF> "a" .')
        assert (err.value.line, err.value.column) == (2, 1)

    def test_code_point_above_unicode_is_a_positioned_error(self):
        with pytest.raises(ParseError, match=r"code point out of range: \\U00110000") as err:
            triples('<http://e.org/s>\n<http://e.org/p> "a\\U00110000" .')
        assert (err.value.line, err.value.column) == (2, 18)

    @pytest.mark.parametrize("string", ['"a\\\nb"', '"""a\\\nb"""', "'''a\\\nb'''"])
    def test_backslash_before_line_break_is_an_invalid_escape(self, string):
        # Turtle has no line-continuation escape
        with pytest.raises(ParseError, match="invalid escape") as err:
            triples(f"\n<http://e.org/s> <http://e.org/p> {string} .")
        assert (err.value.line, err.value.column) == (2, 35)


class TestResolveIri:
    def test_reference_forms(self):
        from triplify.turtle import resolve_iri

        base = Iri("http://e.org/a/b/doc?q=1#frag")
        cases = [
            ("http://other.org/x", "http://other.org/x"),
            ("#sec", "http://e.org/a/b/doc?q=1#sec"),
            ("?fresh", "http://e.org/a/b/doc?fresh"),
            ("//h.org/p", "http://h.org/p"),
            ("/rooted", "http://e.org/rooted"),
            ("sibling", "http://e.org/a/b/sibling"),
            ("", "http://e.org/a/b/doc?q=1"),
        ]
        for reference, expected in cases:
            assert resolve_iri(reference, base).value == expected, reference

    # RFC 3986 §5.4: base and expected results copied from the RFC
    RFC_BASE = "http://a/b/c/d;p?q"
    RFC_NORMAL = [  # §5.4.1
        ("g:h", "g:h"),
        ("g", "http://a/b/c/g"),
        ("./g", "http://a/b/c/g"),
        ("g/", "http://a/b/c/g/"),
        ("/g", "http://a/g"),
        ("//g", "http://g"),
        ("?y", "http://a/b/c/d;p?y"),
        ("g?y", "http://a/b/c/g?y"),
        ("#s", "http://a/b/c/d;p?q#s"),
        ("g#s", "http://a/b/c/g#s"),
        ("g?y#s", "http://a/b/c/g?y#s"),
        (";x", "http://a/b/c/;x"),
        ("g;x", "http://a/b/c/g;x"),
        ("g;x?y#s", "http://a/b/c/g;x?y#s"),
        ("", "http://a/b/c/d;p?q"),
        (".", "http://a/b/c/"),
        ("./", "http://a/b/c/"),
        ("..", "http://a/b/"),
        ("../", "http://a/b/"),
        ("../g", "http://a/b/g"),
        ("../..", "http://a/"),
        ("../../", "http://a/"),
        ("../../g", "http://a/g"),
    ]
    RFC_ABNORMAL = [  # §5.4.2, "http:g" as a strict parser reads it
        ("../../../g", "http://a/g"),
        ("../../../../g", "http://a/g"),
        ("/./g", "http://a/g"),
        ("/../g", "http://a/g"),
        ("g.", "http://a/b/c/g."),
        (".g", "http://a/b/c/.g"),
        ("g..", "http://a/b/c/g.."),
        ("..g", "http://a/b/c/..g"),
        ("./../g", "http://a/b/g"),
        ("./g/.", "http://a/b/c/g/"),
        ("g/./h", "http://a/b/c/g/h"),
        ("g/../h", "http://a/b/c/h"),
        ("g;x=1/./y", "http://a/b/c/g;x=1/y"),
        ("g;x=1/../y", "http://a/b/c/y"),
        ("g?y/./x", "http://a/b/c/g?y/./x"),
        ("g?y/../x", "http://a/b/c/g?y/../x"),
        ("g#s/./x", "http://a/b/c/g#s/./x"),
        ("g#s/../x", "http://a/b/c/g#s/../x"),
        ("http:g", "http:g"),
    ]

    @pytest.mark.parametrize("reference, expected", RFC_NORMAL + RFC_ABNORMAL)
    def test_rfc_3986_examples(self, reference, expected):
        from triplify.turtle import resolve_iri

        assert resolve_iri(reference, Iri(self.RFC_BASE)).value == expected

    def test_dot_segments_of_a_base_without_authority(self):
        from triplify.turtle import resolve_iri

        assert resolve_iri("../x", Iri("urn:a/b/c")).value == "urn:a/x"
        assert resolve_iri("../../../x", Iri("urn:a/b/c")).value == "urn:/x"
        # RFC 3986 5.2.4 rules A and D: a path of dot segments alone, and a
        # leading `../` or `./`, go
        for reference, expected in [("../g", "foo:g"), ("./g", "foo:g"), (".", "foo:"), ("..", "foo:")]:
            assert resolve_iri(reference, Iri("foo:")).value == expected, reference

    def test_authority_only_base(self):
        from triplify.turtle import resolve_iri

        assert resolve_iri("x", Iri("http://e.org")).value == "http://e.org/x"

    def test_urn_base(self):
        from triplify.turtle import resolve_iri

        assert resolve_iri("tail", Iri("urn:ns:path/of")).value == "urn:ns:path/tail"


class TestAgreementWithNTriples:
    def test_same_document_same_graph(self):
        # a document expressible in both syntaxes parses identically
        text = (
            '<http://e.org/s> <http://e.org/p> "63"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
            '<http://e.org/s> <http://e.org/q> "x"@en .\n'
            "_:b7 <http://e.org/p> <http://e.org/o> .\n"
        )
        assert triples(text) == parse_ntriples(text)

    def test_random_graph_documents_read_alike(self):
        # the Turtle reader is the reference the N-Triples reader is held to
        rng = random.Random(31)
        for i in range(200):
            text = serialize_ntriples(random_graph(rng, 40))
            assert parse_ntriples(text) == triples(text), f"document {i}"

    def test_fixture_documents_read_alike(self, fixtures_dir):
        documents = sorted(fixtures_dir.glob("*/*.nt"))
        assert documents
        for path in documents:
            text = path.read_text(encoding="utf-8")
            assert parse_ntriples(text) == triples(text), path.parent.name
