"""RDF term construction rules and prefix expansion."""

import random

import pytest

from triplify import (
    BlankNode,
    Graph,
    Iri,
    Literal,
    PrefixMap,
    Triple,
    parse_ntriples,
    parse_turtle,
    serialize_ntriples,
)
from triplify.errors import (
    IllegalCharacterError,
    LexicalFormMismatchError,
    ParseError,
    RelativeIriError,
    TriplifyError,
    UnknownPrefixError,
)
from triplify.terms import (
    RDF_LANGSTRING,
    XSD_BOOLEAN,
    XSD_DATE,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    date_minutes,
    escape_literal,
    exact_int,
    literal_test,
    literal_text,
)

from genutil import random_term

# 5,000 digits: past the 4,300 that `int` converts from text by default
HUGE = "9" * 5000


class TestMakeIri:
    def test_wellformed_absolute_iri(self):
        iri = Iri("http://purl.obolibrary.org/obo/NCIT_C3262")
        assert iri.value == "http://purl.obolibrary.org/obo/NCIT_C3262"

    def test_no_scheme_is_relative(self):
        with pytest.raises(RelativeIriError):
            Iri("patient/7")

    def test_raw_space_reports_offset(self):
        with pytest.raises(IllegalCharacterError) as err:
            Iri("http://e.org/a b")
        assert err.value.position == 15

    def test_input_preserved_byte_exact(self):
        text = "http://e.org/%41?x=1#frag"
        assert Iri(text).value == text

    @pytest.mark.parametrize(
        "bad", ['http://e.org/"', "http://e.org/<x>", "http://e.org/\x01", "http://e.org/\ud800"]
    )
    def test_forbidden_characters(self, bad):
        with pytest.raises(IllegalCharacterError):
            Iri(bad)

    def test_colon_after_slash_is_not_a_scheme(self):
        with pytest.raises(RelativeIriError):
            Iri("a/b:c")

    def test_unicode_allowed(self):
        assert Iri("http://ex.org/café").value.endswith("café")


class TestExpandCurie:
    def test_ncit_neoplasm(self):
        prefixes = PrefixMap({"ncit": "http://purl.obolibrary.org/obo/NCIT_"})
        assert prefixes.expand("ncit:C3262").value == (
            "http://purl.obolibrary.org/obo/NCIT_C3262"
        )

    def test_unknown_prefix(self):
        with pytest.raises(UnknownPrefixError):
            PrefixMap().expand("roo:P100000")

    def test_empty_local_part(self):
        prefixes = PrefixMap({"ex": "http://e.org/"})
        assert prefixes.expand("ex:").value == "http://e.org/"

    def test_result_validated(self):
        prefixes = PrefixMap({"ex": "http://e.org/"})
        with pytest.raises(IllegalCharacterError):
            prefixes.expand("ex:a b")

    def test_missing_colon_rejected(self):
        with pytest.raises(ValueError):
            PrefixMap({"ex": "http://e.org/"}).expand("noseparator")

    def test_rebinding_replaces(self):
        prefixes = PrefixMap({"ex": "http://e.org/"})
        prefixes.bind("ex", "http://other.org/")
        assert prefixes.expand("ex:x").value == "http://other.org/x"


class TestLiteral:
    def test_plain_literal_gets_xsd_string(self):
        assert Literal("hello").datatype == XSD_STRING

    def test_language_requires_langstring(self):
        Literal("hoi", RDF_LANGSTRING, "nl")
        with pytest.raises(TriplifyError):
            Literal("hoi", XSD_STRING, "nl")
        with pytest.raises(TriplifyError):
            Literal("hoi", RDF_LANGSTRING)  # tag missing

    @pytest.mark.parametrize("lexical", ["\ud800", "a\udfff", "\udc80b"])
    def test_lone_surrogate_rejected(self, lexical):
        with pytest.raises(TriplifyError, match="surrogate"):
            Literal(lexical)
        with pytest.raises(TriplifyError, match="surrogate"):
            Literal(lexical, RDF_LANGSTRING, "en")

    @pytest.mark.parametrize("lexical", ["63", "-1", "+007"])
    def test_integer_lexicals(self, lexical):
        Literal(lexical, XSD_INTEGER)

    @pytest.mark.parametrize("lexical", ["abc", "1.5", "", "1 ", "63\n"])
    def test_bad_integer_lexicals(self, lexical):
        with pytest.raises(LexicalFormMismatchError):
            Literal(lexical, XSD_INTEGER)

    # XSD 1.1 Part 2 D.3.1: a timezone offset runs to 14:00, and only a
    # four-digit year may start with 0
    @pytest.mark.parametrize(
        "lexical",
        ["2020-02-29", "1999-12-31", "2020-01-01Z", "2020-01-01+14:00", "2020-01-01-14:00",
         "2020-01-01+13:59", "0000-01-01", "-0001-01-01", "12020-01-01"],
    )
    def test_date_lexicals(self, lexical):
        Literal(lexical, XSD_DATE)

    @pytest.mark.parametrize(
        "lexical",
        ["2020-02-30", "2021-02-29", "2020-13-01", "20-01-01", "2020-01-01\n",
         "2020-01-01+14:30", "2020-01-01-15:00", "2020-01-01+13:60", "2020-01-01+99:99",
         "02020-01-01", "-02020-01-01"],
    )
    def test_bad_date_lexicals(self, lexical):
        with pytest.raises(LexicalFormMismatchError):
            Literal(lexical, XSD_DATE)

    def test_a_forbidden_date_is_a_positioned_parse_error(self):
        date = "<http://www.w3.org/2001/XMLSchema#date>"
        text = f'<http://e.org/s> <http://e.org/p> "2020-01-01"^^{date} .\n'
        for bad in ("2020-01-01+14:30", "02020-01-01"):
            with pytest.raises(ParseError, match="lexical form") as err:
                parse_ntriples(text + f'<http://e.org/s> <http://e.org/p> "{bad}"^^{date} .\n')
            assert (err.value.line, err.value.column) == (2, 35)

    # XSD 1.1 Part 2 3.3.3: digits and at most one point; no exponent, INF or NaN
    @pytest.mark.parametrize("lexical", ["1.5", "-0.5", "+.5", "1.", "42", "007.100"])
    def test_decimal_lexicals(self, lexical):
        Literal(lexical, XSD_DECIMAL)

    @pytest.mark.parametrize("lexical", ["abc", "1e5", "INF", "NaN", ".", "", "1,5", "1.5\n"])
    def test_bad_decimal_lexicals(self, lexical):
        with pytest.raises(LexicalFormMismatchError):
            Literal(lexical, XSD_DECIMAL)

    def test_a_bad_decimal_is_a_positioned_parse_error(self):
        decimal = "<http://www.w3.org/2001/XMLSchema#decimal>"
        text = f'<http://e.org/s> <http://e.org/p> "1.5"^^{decimal} .\n'
        with pytest.raises(ParseError, match="lexical form") as err:
            parse_ntriples(text + f'<http://e.org/s> <http://e.org/p> "abc"^^{decimal} .\n')
        assert (err.value.line, err.value.column) == (2, 35)

    @pytest.mark.parametrize("lexical", ["1.5", "-2.0e3", "INF", "NaN", ".5", "3"])
    def test_double_lexicals(self, lexical):
        Literal(lexical, XSD_DOUBLE)

    def test_bad_double_lexical(self):
        for lexical in ("abc", "1.5\n"):
            with pytest.raises(LexicalFormMismatchError):
                Literal(lexical, XSD_DOUBLE)

    @pytest.mark.parametrize("lexical", ["true", "false", "1", "0"])
    def test_boolean_lexicals(self, lexical):
        Literal(lexical, XSD_BOOLEAN)

    def test_bad_boolean_lexical(self):
        for lexical in ("yes", "true\n"):
            with pytest.raises(LexicalFormMismatchError):
                Literal(lexical, XSD_BOOLEAN)

    @pytest.mark.parametrize("tag", ["", "en-", "toolongtag", "en\n"])
    def test_bad_language_tags(self, tag):
        with pytest.raises(TriplifyError, match="language tag"):
            Literal("hoi", RDF_LANGSTRING, tag)

    def test_value_equality(self):
        assert Literal("63", XSD_INTEGER) == Literal("63", XSD_INTEGER)
        assert Literal("63", XSD_INTEGER) != Literal("63")


class TestLongIntegers:
    """Digit runs of any length have their exact value."""

    @pytest.mark.parametrize("text", ["0", "-17", "+42", "0012"])
    def test_exact_int_of_a_short_run_is_int(self, text):
        assert exact_int(text) == int(text)

    def test_exact_int_of_a_long_run(self):
        assert exact_int(HUGE) == 10**5000 - 1
        assert exact_int("-" + HUGE) == -(10**5000 - 1)
        assert exact_int("+1" + HUGE) == 2 * 10**5000 - 1

    def test_date_with_a_long_year_is_valid(self):
        assert Literal(HUGE + "-01-01", XSD_DATE).lexical == HUGE + "-01-01"
        # leap years follow the year's value: 44...4 is one, 99...9 is not
        assert Literal("4" * 5000 + "-02-29", XSD_DATE)
        with pytest.raises(LexicalFormMismatchError):
            Literal(HUGE + "-02-29", XSD_DATE)

    def test_long_years_order_by_value(self):
        assert date_minutes(HUGE + "-01-01") > date_minutes("9999-12-31")
        assert date_minutes("-" + HUGE + "-01-01") < date_minutes("-9999-01-01")
        assert date_minutes(HUGE + "-01-02") - date_minutes(HUGE + "-01-01") == 1440

    def test_readers_take_a_date_with_a_long_year(self):
        date = f'"{HUGE}-01-01"^^<http://www.w3.org/2001/XMLSchema#date>'
        line = f"<http://e.org/s> <http://e.org/p> {date} .\n"
        (triple,) = parse_ntriples(line)
        (same,) = parse_turtle(line)[0]
        assert triple == same and triple.o == Literal(HUGE + "-01-01", XSD_DATE)


class TestBlankNode:
    @pytest.mark.parametrize("label", ["", "-a", "a.", "a b", "a\n", "\u00b7a", "a:b", "\ud800"])
    def test_bad_labels(self, label):
        with pytest.raises(TriplifyError, match="blank node label"):
            BlankNode(label)

    @pytest.mark.parametrize("label", ["café", "a\u00b7b", "日本", "\u00e9.x", "_\u203f", "0\U00010000"])
    def test_turtle_labels(self, label):
        # RDF 1.1 Turtle BLANK_NODE_LABEL: PN_CHARS_U or a digit first,
        # then PN_CHARS and inner dots
        assert BlankNode(label).label == label

    @pytest.mark.parametrize("label", ["café", "a\u00b7b"])
    def test_non_ascii_labels_read_alike_and_round_trip(self, label):
        line = f"_:{label} <http://e.org/p> _:{label} .\n"
        g = parse_ntriples(line)
        assert g == parse_turtle(line)[0]
        (triple,) = g
        assert triple.s == triple.o == BlankNode(label)
        assert serialize_ntriples(g) == line


class TestTriple:
    def test_positions_enforced(self):
        s = Iri("http://e.org/s")
        p = Iri("http://e.org/p")
        Triple(s, p, Literal("x"))
        Triple(BlankNode("b"), p, s)
        with pytest.raises(TriplifyError):
            Triple(Literal("x"), p, s)
        with pytest.raises(TriplifyError):
            Triple(s, BlankNode("b"), s)

    def test_line_rendering(self):
        t = Triple(Iri("http://e.org/s"), Iri("http://e.org/p"), Literal("63", XSD_INTEGER))
        assert serialize_ntriples(Graph([t])) == (
            '<http://e.org/s> <http://e.org/p> '
            '"63"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
        )


class TestEscaping:
    def test_quote_backslash_newline_short_escapes(self):
        assert escape_literal('a"b') == 'a\\"b'
        assert escape_literal("a\\b") == "a\\\\b"
        assert escape_literal("a\nb") == "a\\nb"
        assert escape_literal("a\rb") == "a\\rb"

    def test_other_controls_as_uXXXX(self):
        assert escape_literal("a\tb") == "a\\u0009b"
        assert escape_literal("\x7f") == "\\u007F"

    def test_unicode_passes_through(self):
        assert escape_literal("café \U0001f642") == "café \U0001f642"


class TestSpellings:
    """What the graph and the converter read from, and write as, a term's
    canonical spelling, against the term objects themselves."""

    def test_a_literal_datatype_is_read_from_the_spelling(self):
        rng = random.Random(12)
        terms = [random_term(rng) for _ in range(400)] + [
            Literal(""),
            Literal('"'),
            Literal("x", RDF_LANGSTRING, "en"),
            Literal("x", Iri("http://e.org/d")),
            Literal("x", Iri("http://e.org/dt")),
            Iri("http://e.org/dt"),
            BlankNode("dt"),
        ]
        datatypes = [XSD_STRING, RDF_LANGSTRING, XSD_INTEGER, Iri("http://e.org/d"), Iri("http://e.org/dt")]
        for dt in datatypes:
            test = literal_test(dt.value)
            for t in terms:
                assert test(t.to_ntriples()) == (isinstance(t, Literal) and t.datatype == dt), (dt, t)

    @pytest.mark.parametrize(
        "lexical, datatype, language",
        [
            ("a\tb\"\\", XSD_STRING, None),
            ("63", XSD_INTEGER, None),
            ("x", XSD_INTEGER, None),
            ("x", RDF_LANGSTRING, "en-GB"),
            ("x", RDF_LANGSTRING, None),
            ("x", RDF_LANGSTRING, "toolongtag"),
            ("x", XSD_STRING, "en"),
            ("a\ud800", XSD_STRING, None),
            ("", Iri("http://e.org/dt"), None),
        ],
    )
    def test_literal_text_is_the_spelling_of_the_literal_or_its_error(self, lexical, datatype, language):
        try:
            want = Literal(lexical, datatype, language).to_ntriples()
        except TriplifyError as exc:
            with pytest.raises(type(exc)) as err:
                literal_text(lexical, datatype.value, language)
            assert str(err.value) == str(exc)
        else:
            assert literal_text(lexical, datatype.value, language) == want

    def test_literal_text_agrees_with_the_literal_over_random_forms(self):
        # lone surrogates, controls, quotes and backslashes, alone or
        # mixed with text a datatype accepts
        pool = list('\ud800\udbff\udc00\udfff\x00\x07\x1f\x7f"\\\n\r\t') + list(
            "ab09-+.eé\U0001f642"
        )
        datatypes = [XSD_STRING, RDF_LANGSTRING, XSD_INTEGER, XSD_DATE, Iri("http://e.org/dt")]
        rng = random.Random(26)
        for _ in range(3000):
            lexical = "".join(rng.choice(pool) for _ in range(rng.randint(0, 6)))
            if rng.random() < 0.2:
                lexical = rng.choice(["12", "2020-01-31", "x"]) + lexical[:1]
            datatype = rng.choice(datatypes)
            language = rng.choice([None, None, "en", "en-GB", "not a tag"])
            self.test_literal_text_is_the_spelling_of_the_literal_or_its_error(
                lexical, datatype, language
            )
