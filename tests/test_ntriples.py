"""Canonical N-Triples output and exact round-tripping."""

import random

import pytest

from triplify import (
    BlankNode,
    Graph,
    Iri,
    Literal,
    Triple,
    bundled_mapping,
    convert,
    generate_synthetic,
    parse_ntriples,
    serialize_ntriples,
)
from triplify.errors import ParseError
from triplify import ntriples
from triplify.terms import RDF_NS, XSD_INTEGER, XSD_NS

from conftest import fixture_case, fixture_cases
from genutil import dirty_graph, fuzz_graph, random_graph
from oracles import parse_every_line, read_outcome, serialize_every_line, term_of


class TestSerialize:
    def test_empty_graph_is_empty_text(self):
        assert serialize_ntriples(Graph()) == ""

    def test_escaped_quote_in_literal(self):
        g = Graph([Triple(Iri("http://e.org/s"), Iri("http://e.org/p"), Literal('a"b'))])
        assert serialize_ntriples(g) == '<http://e.org/s> <http://e.org/p> "a\\"b" .\n'

    def test_lines_sorted(self):
        g = Graph(
            [
                Triple(Iri("http://e.org/b"), Iri("http://e.org/p"), Literal("1", XSD_INTEGER)),
                Triple(Iri("http://e.org/a"), Iri("http://e.org/p"), Literal("2", XSD_INTEGER)),
            ]
        )
        lines = serialize_ntriples(g).splitlines()
        assert lines == sorted(lines)

    def test_deterministic(self):
        rng = random.Random(5)
        g = random_graph(rng, 200)
        assert serialize_ntriples(g) == serialize_ntriples(g)

    def test_every_line_spelt_and_sorted_on_fuzz_graphs(self):
        rng = random.Random(6)
        for trial in range(30):
            g = (fuzz_graph if trial % 2 else random_graph)(rng, 300)
            assert serialize_ntriples(g) == serialize_every_line(g), f"trial {trial}"

    @pytest.mark.parametrize("case_dir", fixture_cases(), ids=lambda p: p.name)
    def test_every_line_spelt_and_sorted_on_fixtures(self, case_dir):
        g, _ = convert(*fixture_case(case_dir))
        text = serialize_ntriples(g)
        assert text == serialize_every_line(g)
        assert text == serialize_every_line(parse_ntriples(text))


class TestParse:
    def test_identity_on_empty(self):
        assert parse_ntriples(serialize_ntriples(Graph())) == Graph()

    def test_duplicate_lines_collapse(self):
        text = (
            "<http://e.org/s> <http://e.org/p> <http://e.org/o> .\n"
            "<http://e.org/s> <http://e.org/p> <http://e.org/o> .\n"
        )
        assert len(parse_ntriples(text)) == 1

    def test_missing_dot_reports_line(self):
        text = (
            "<http://e.org/s> <http://e.org/p> <http://e.org/o> .\n"
            "<http://e.org/s> <http://e.org/p> <http://e.org/o2>\n"
        )
        with pytest.raises(ParseError) as err:
            parse_ntriples(text)
        assert err.value.line == 2

    def test_comments_and_blank_lines(self):
        text = (
            "# a comment\n"
            "\n"
            "<http://e.org/s> <http://e.org/p> \"x\" . # trailing\n"
        )
        assert len(parse_ntriples(text)) == 1

    def test_bom_tolerated(self):
        text = "﻿<http://e.org/s> <http://e.org/p> <http://e.org/o> .\n"
        assert len(parse_ntriples(text)) == 1

    def test_crlf_line_ends(self):
        lf = (
            "<http://e.org/s> <http://e.org/p> \"x\" .\n"
            "# a comment\n"
            "\n"
            "<http://e.org/s> <http://e.org/q> <http://e.org/o> .\n"
        )
        g = parse_ntriples(lf.replace("\n", "\r\n"))
        assert len(g) == 2 and g == parse_ntriples(lf)

    def test_cr_line_ends(self):
        # a lone CR ends a line, and so a comment
        lines = [
            "<http://e.org/s> <http://e.org/p> \"x\" . # a note",
            "# a comment",
            "<http://e.org/s> <http://e.org/q> <http://e.org/o> .",
        ]
        g = parse_ntriples("\r".join(lines) + "\r")
        assert len(g) == 2 and g == parse_ntriples("\n".join(lines))
        with pytest.raises(ParseError) as err:
            parse_ntriples("\r\n".join(lines) + "\r<http://e.org/s>\r")
        assert err.value.line == 4

    def test_bad_escape_rejected(self):
        with pytest.raises(ParseError):
            parse_ntriples('<http://e.org/s> <http://e.org/p> "a\\qb" .\n')

    def test_bad_escape_has_column(self):
        with pytest.raises(ParseError) as err:
            parse_ntriples('<http://e.org/s> <http://e.org/p> "a\\q" .')
        assert (err.value.line, err.value.column) == (1, 35)

    @pytest.mark.parametrize("escape", ["\\uD800", "\\uDFFF", "\\U0000DC00"])
    def test_surrogate_escape_is_a_positioned_error(self, escape):
        with pytest.raises(ParseError, match="surrogate") as err:
            parse_ntriples(f'<http://e.org/s> <http://e.org/p> "a{escape}" .\n')
        assert (err.value.line, err.value.column) == (1, 35)

    def test_code_point_above_unicode_is_a_positioned_error(self):
        with pytest.raises(ParseError, match=r"code point out of range: \\U00110000") as err:
            parse_ntriples('<http://e.org/s> <http://e.org/p> "a\\U00110000" .\n')
        assert (err.value.line, err.value.column) == (1, 35)

    def test_backslash_before_line_break_is_rejected(self):
        # the line break ends the line, so the string is unterminated
        with pytest.raises(ParseError) as err:
            parse_ntriples('<http://e.org/s> <http://e.org/p> "a\\\nb" .\n')
        assert (err.value.line, err.value.column) == (1, 35)

    @pytest.mark.parametrize(
        "line, column, expected",
        [
            ('"lit" <http://e.org/p> <http://e.org/o> .', 1, "subject"),
            ("<http://e.org/s>  _:b <http://e.org/o> .", 19, "predicate IRI"),
            ("<http://e.org/s> <http://e.org/p> <http://e.org/o a> .", 35, "object term"),
            ('<http://e.org/s> <http://e.org/p> "x"^^foo .', 38, "'.'"),
            ("<http://e.org/s> <http://e.org/p> <http://e.org/o> . x", 54, "after '.'"),
        ],
    )
    def test_syntax_error_names_slot_and_column(self, line, column, expected):
        with pytest.raises(ParseError) as err:
            parse_ntriples("# header\n" + line + "\n")
        assert (err.value.line, err.value.column) == (2, column)
        assert expected in str(err.value)

    def test_term_error_has_column(self):
        with pytest.raises(ParseError) as err:
            parse_ntriples('<http://e.org/s> <http://e.org/p> "x"@toolongtag .')
        assert (err.value.line, err.value.column) == (1, 35)
        with pytest.raises(ParseError) as err:
            parse_ntriples("<http://e.org/s> <rel> <http://e.org/o> .")
        assert (err.value.line, err.value.column) == (1, 18)
        # a bad datatype IRI is reported where its `<` is
        with pytest.raises(ParseError) as err:
            parse_ntriples('<http://a> <http://b> "1"^^<rel> .')
        assert (err.value.line, err.value.column) == (1, 28)
        with pytest.raises(ParseError) as err:
            parse_ntriples('<http://a> <http://b> "1"^^ \t<rel> .')
        assert (err.value.line, err.value.column) == (1, 30)
        # a tab-spaced first line: every line is read by the line pattern,
        # and the comment and blank lines count
        with pytest.raises(ParseError) as err:
            parse_ntriples(
                "<http://e.org/a>\t<http://e.org/p>\t<http://e.org/o> .\n# c\n\n"
                "<http://e.org/a> <http://e.org/p> <rel> .\n"
            )
        assert (err.value.line, err.value.column) == (4, 35)

    def test_term_error_raises_where_that_term_first_occurs(self):
        # the lexical "x" is a good plain and tagged literal on lines 1-2
        # and a bad integer on line 3: each distinct term text is checked
        lines = [
            '<http://e.org/s> <http://e.org/p> "x" .',
            '<http://e.org/s> <http://e.org/p> "x"@en .',
            '<http://e.org/s> <http://e.org/p> "x"^^<http://www.w3.org/2001/XMLSchema#integer> .',
        ]
        with pytest.raises(ParseError) as err:
            parse_ntriples("\n".join(lines) + "\n")
        assert (err.value.line, err.value.column) == (3, 35)
        lines[2] = "<http://e.org/s> <http://e.org/p> <rel> ."
        with pytest.raises(ParseError) as err:
            parse_ntriples("\n".join(lines + lines) + "\n")
        assert (err.value.line, err.value.column) == (3, 35)

    def test_spacing_after_carets_is_one_term(self):
        integer = "<http://www.w3.org/2001/XMLSchema#integer>"
        g = parse_ntriples(
            f'<http://e.org/a> <http://e.org/p> "1"^^{integer} .\n'
            f'<http://e.org/b> <http://e.org/p> "1"^^ \t{integer} .\n'
        )
        (_, _, first), (_, _, second) = g._triples
        assert first == second and len(g._terms) == 4
        assert {t.o for t in g} == {Literal("1", XSD_INTEGER)}

    def test_literal_subject_rejected(self):
        with pytest.raises(ParseError):
            parse_ntriples('"lit" <http://e.org/p> <http://e.org/o> .\n')

    def test_typed_and_tagged_literals(self):
        text = (
            '<http://e.org/s> <http://e.org/p> "63"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
            '<http://e.org/s> <http://e.org/p> "hoi"@nl .\n'
            "<http://e.org/s> <http://e.org/p> _:b0 .\n"
        )
        g = parse_ntriples(text)
        assert len(g) == 3


S, P, O = "<http://e.org/s>", "<http://e.org/p>", "<http://e.org/o>"
INTEGER = "<http://www.w3.org/2001/XMLSchema#integer>"
# Documents on both sides of the canonical `S P O .` split and its checks.
DOCUMENTS = {
    "canonical": f'{S} {P} {O} .\n_:b {P} "x"@en .\n{S} {P} "1"^^{INTEGER} .\n{S} {P} _:b .\n',
    "tabs": f"{S}\t{P}\t{O}\t.\n{S} {P} {O}\t.\n",
    "double spaces": f"{S}  {P} {O} .\n{S} {P}  {O} .\n{S} {P} {O}  .\n",
    "leading and trailing spaces": f" {S} {P} {O} .\n{S} {P} {O} . \n",
    "trailing comment": f'{S} {P} {O} . # a note\n{S} {P} "x" . # " .\n{S} {P} {O} .#\n',
    "blank touching predicate": f"_:a{P} {O} .\n_:a {P} {O} .\n",
    "literals with spaces and dots": (
        f'{S} {P} "a . b ." .\n{S} {P} " ." .\n{S} {P} "x y"@en .\n{S} {P} "1"^^ {INTEGER} .\n'
    ),
    "known literal as subject": f'{S} {P} "lit" .\n"lit" {P} {O} .\n',
    "known literal as predicate": f'{S} {P} "lit" .\n{S} "lit" {O} .\n',
    "object IRI as predicate": f"{S} {P} <http://e.org/q> .\n{S} <http://e.org/q> {O} .\n",
    "known blank as predicate": f"{S} {P} _:b .\n{S} _:b {O} .\n",
    "bad escape in subject, broken object": f"<http://e.org/\\uD800> {P} <http://e.org/o a> .\n",
    "bad escape in subject": f"<http://e.org/\\uD800> {P} {O} .\n",
    "relative subject, missing dot": f"<rel> {P} {O}\n",
    "one text in two slots": f"_:a {P} _:a .\n{O} {O} {O} .\n",
    "four terms": f"{S} {P} {O} {O} .\n",
    "empty object": f"{S} {P}  .\n",
    "lone dot": " .\n",
}


class TestCanonicalLines:
    """The split read of canonical lines against `parse_every_line`, the
    reference that reads every line with the full line pattern."""

    @pytest.mark.parametrize("text", DOCUMENTS.values(), ids=DOCUMENTS.keys())
    def test_same_graph_order_and_errors_as_the_line_pattern(self, text):
        assert read_outcome(parse_ntriples, text) == read_outcome(parse_every_line, text)

    def test_spacing_variants_of_random_graphs(self):
        rng = random.Random(7120)
        variants = [
            lambda line: line.replace(" ", "\t", 1),
            lambda line: line.replace(" ", "  ", rng.randrange(1, 4)),
            lambda line: " " + line,
            lambda line: line + " ",
            lambda line: line + " # c",
            lambda line: line[:-2] + "\t.",
            lambda line: line.replace(" ", "", 1),
        ]
        for i in range(300):
            lines = serialize_ntriples(fuzz_graph(rng, 12)).splitlines()
            lines = [rng.choice(variants)(x) if rng.random() < 0.3 else x for x in lines]
            text = "\n".join(lines) + "\n"
            assert read_outcome(parse_ntriples, text) == read_outcome(parse_every_line, text), i

    def test_a_known_text_is_checked_for_its_new_slot(self):
        with pytest.raises(ParseError, match="subject") as err:
            parse_ntriples(DOCUMENTS["known literal as subject"])
        assert (err.value.line, err.value.column) == (2, 1)
        with pytest.raises(ParseError, match="predicate IRI") as err:
            parse_ntriples(DOCUMENTS["known blank as predicate"])
        assert (err.value.line, err.value.column) == (2, 18)
        assert len(parse_ntriples(DOCUMENTS["object IRI as predicate"])) == 2

    def test_syntax_error_before_an_earlier_slot_term_error(self):
        with pytest.raises(ParseError, match="object term") as err:
            parse_ntriples(DOCUMENTS["bad escape in subject, broken object"])
        assert (err.value.line, err.value.column) == (1, 40)
        with pytest.raises(ParseError, match="surrogate") as err:
            parse_ntriples(DOCUMENTS["bad escape in subject"])
        assert (err.value.line, err.value.column) == (1, 1)


# The edges of the text the reader stores as read: each an object text,
# and for a valid term a second text of it, spelt differently (None where
# the text is an error).
EDGES = {
    "raw tab in a string": ('"a\tb"', '"a\\u0009b"'),
    "raw DEL in a string": ('"a\x7fb"', '"a\\u007Fb"'),
    "xsd:string datatype": (f'"a"^^<{XSD_NS}string>', '"a"'),
    "upper-case \\u escape": ('"\\u00C9t\\u00C9"', '"\u00c9t\u00c9"'),
    "lower-case \\u escape": ('"\\u00e9t\\u00e9"', '"\u00e9t\u00e9"'),
    "DEL in an IRI": ("<http://e.org/a\x7fb>", None),
    "relative IRI": ("<a>", None),
    "9-letter language subtag": ('"x"@en-abcdefghi', None),
    "rdf:langString without a tag": (f'"x"^^<{RDF_NS}langString>', None),
    "not an xsd:integer": (f'"x"^^<{XSD_NS}integer>', None),
    "escaped lone surrogate": ('"\\uD800"', None),
    "datatype IRI with an escape": ('"1"^^<http://e.org/\\u0064t>', '"1"^^<http://e.org/dt>'),
    "tab after the carets": (f'"1"^^\t{INTEGER}', f'"1"^^{INTEGER}'),
}
SPELT_TWICE = {name: edge for name, edge in EDGES.items() if edge[1] is not None}


class TestStoredAsRead:
    """A slot's text is read into the canonical spelling of its term, so
    a text that is that spelling is stored as read. Either way the graph,
    its term table and every error are those of `parse_every_line`, which
    makes every term."""

    @pytest.mark.parametrize("text, other", EDGES.values(), ids=EDGES.keys())
    def test_same_spelling_or_error_as_making_the_term(self, text, other):
        for line in (f"{S} {P} {text} .", f"{S}\t{P}\t{text}\t."):  # split, then full pattern
            document = f"{S} {P} {O} .\n{line}\n"
            assert read_outcome(parse_ntriples, document) == read_outcome(parse_every_line, document)
        if other is not None:
            g = parse_ntriples(f"{S} {P} {text} .\n")
            assert g._terms[2] == term_of(text, 1, 35, {}).to_ntriples()

    @pytest.mark.parametrize("text, other", SPELT_TWICE.values(), ids=SPELT_TWICE.keys())
    def test_both_spellings_of_a_term_share_one_id(self, text, other):
        for first, second in ((text, other), (other, text)):
            g = parse_ntriples(f"{S} {P} {first} .\n{S} {P} {second} .\n")
            assert len(g) == 1 and len(g._terms) == 3

    def test_a_written_graph_is_read_back_without_making_a_term(self, monkeypatch):
        g, _ = convert(bundled_mapping(), generate_synthetic(50, 1))
        documents = [
            serialize_ntriples(g),
            # escapes, an xsd:string datatype and spacing after the carets
            f'<http://e.org/\\u0041> {P} "a\\u00E9\\n"^^<{XSD_NS}string> .\n'
            f'_:b {P} "1"^^ \t{INTEGER} .\n{S} {P} "x\ty"@en .\n',
        ]
        made = []
        for cls in (Iri, BlankNode, Literal):

            def counted(self, check=cls.__post_init__):
                made.append(type(self).__name__)
                check(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        read = [parse_ntriples(text) for text in documents]
        assert made == []
        parse_every_line(documents[1])
        assert made  # the count is live: the reference reader makes terms
        monkeypatch.undo()
        assert read[0] == g
        for text, graph in zip(documents, read):
            assert read_outcome(lambda _: graph, text) == read_outcome(parse_every_line, text)


def written_documents() -> dict[str, str]:
    """Writer outputs: random and fuzz graphs, every fixture case's
    conversion and a dirty synthetic graph."""
    rng = random.Random(30)
    documents = {}
    for trial in range(40):
        make = fuzz_graph if trial % 2 else random_graph
        documents[f"{make.__name__} {trial}"] = serialize_ntriples(make(rng, 150))
    for case_dir in fixture_cases():
        documents[case_dir.name] = serialize_ntriples(convert(*fixture_case(case_dir))[0])
    documents["dirty synthetic"] = serialize_ntriples(dirty_graph(60, 3))
    return documents


WRITTEN = written_documents()
DATE = f"<{XSD_NS}date>"
CANONICAL = {"canonical", "object IRI as predicate", "one text in two slots"}
# Every other `DOCUMENTS` entry, every `EDGES` text, and more documents
# that the writer would not make.
OTHER = {name: text for name, text in DOCUMENTS.items() if name not in CANONICAL}
OTHER.update({f"edge: {name}": f"{S} {P} {text} .\n" for name, (text, _) in EDGES.items()})
_FIRST = WRITTEN["case01_basic"]
OTHER.update(
    {
        "CRLF line ends": _FIRST.replace("\n", "\r\n"),
        "CR line ends": _FIRST.replace("\n", "\r"),
        "a BOM": "\ufeff" + _FIRST,
        "no final newline": _FIRST[:-1],
        "a comment line": "# exported\n" + _FIRST,
        "a comment line ending in ' .'": "# exported as N-Triples .\n" + _FIRST,
        "a blank line": "\n" + _FIRST,
        "two IRIs as one text": f"{S} {P} {O} .\n{S} {P} {O}{O} .\n",
        "two labels as one text": f"{S} {P} {O} .\n{S} {P} _:a _:b .\n",
        "a lone quote": f"{S} {P} {O} .\n{S} {P} \" .\n",
        "an empty text": f"{S} {P} {O} .\n{S}  {O} .\n",
        # the line pattern reads it, and the error's line is found past
        # the comment and blank lines
        "tabs, then a relative IRI": f"{S}\t{P}\t{O} .\n# c\n\n{S} {P} <rel> .\n",
    }
)
# Written documents but for their last line, so the whole loop runs
# before the term checks find the line.
LAST_LINE = {
    "relative IRI": f"{S} {P} <rel> .",
    "not a date": f'{S} {P} "2021-02-29"^^{DATE} .',
    "an escape of LF by its code": f'{S} {P} "a\\u000A" .',
    "literal subject": f'"x" {P} {O} .',
    "blank node predicate": f"{S} _:b {O} .",
    "a \\u escape of a letter": f'{S} {P} "caf\\u00E9" .',
    "a lowercase \\u escape": f'{S} {P} "a\\u001f" .',
    "a \\U escape": f'{S} {P} "\\U0001F642" .',
    "a \\t escape after an escaped backslash": f'{S} {P} "a\\\\\\tb" .',
    "an escaped IRI": f"<http://e.org/\\u0041> {P} {O} .",
    "xsd:string datatype": f'{S} {P} "x"^^<{XSD_NS}string> .',
}
OTHER.update(
    {f"last line: {k}": WRITTEN["case12_registry"] + line + "\n" for k, line in LAST_LINE.items()}
)
# The documents of `OTHER` the line pattern reads: those whose lines the
# split cannot cut, and those with a line the split misreads, which the
# line pattern then reads again; the split reads every other.
UNCUT = {"tabs", "trailing comment", "leading and trailing spaces", "relative subject, missing dot"}
MISREAD = {
    "double spaces",
    "blank touching predicate",
    "lone dot",
    "a comment line ending in ' .'",
    "tabs, then a relative IRI",
}


@pytest.fixture
def ways(monkeypatch):
    """How `parse_ntriples` found a document's lines, one entry a read:
    by the split (False) or by the line pattern (True). A second read
    follows a line the split misread."""
    seen = []
    lines = ntriples._lines

    def spied(text, matched):
        found = lines(text, matched)
        seen.append(found[2])
        return found

    monkeypatch.setattr(ntriples, "_lines", spied)
    return seen


# Flaws put in a written document's lines: the lines each puts in, in
# order, at random places ...
INSERTED = {f"line: {name}": (line,) for name, line in LAST_LINE.items()}
INSERTED.update({f"edge: {name}": (f"{S} {P} {text} .",) for name, (text, _) in EDGES.items()})
for _name, (_text, _other) in SPELT_TWICE.items():
    INSERTED[f"both spellings: {_name}"] = (f"{S} {P} {_text} .", f"{S} {P} {_other} .")
    INSERTED[f"both spellings, reversed: {_name}"] = (f"{S} {P} {_other} .", f"{S} {P} {_text} .")
INSERTED.update({"a comment line": ("# exported",), "a blank line": ("",)})
# ... or a change to one of its lines.
CHANGED = {
    "a tab-spaced line": lambda line: line.replace(" ", "\t", 1),
    "a double space": lambda line: line.replace(" ", "  ", 1),
    "a trailing comment": lambda line: line + " # c",
    "an IRI spelt with an escape": lambda line: line.replace("<h", "<\\u0068", 1),
}
BASES = [text.splitlines() for text in WRITTEN.values() if text]


def flawed(rng: random.Random) -> tuple[list[str], list[str]]:
    """The lines of a written document with 1-4 flaws at random lines, and
    the flaws' names."""
    lines = list(rng.choice(BASES))
    names = rng.choices(sorted(INSERTED) + sorted(CHANGED), k=rng.randint(1, 4))
    for name in names:
        if name in CHANGED:
            i = rng.randrange(len(lines))
            lines[i] = CHANGED[name](lines[i])
            continue
        places = sorted(rng.randrange(len(lines) + 1) for _ in INSERTED[name])
        for place, line in reversed(list(zip(places, INSERTED[name]))):
            lines.insert(place, line)
    return lines, names


class TestOneReader:
    """The split reads every document the writer makes and any other whose
    lines it can cut; the line pattern reads the rest. Either way the
    graph, its IDs and triple order, or the error, are those of
    `parse_every_line`, which reads every line by the line pattern."""

    @pytest.mark.parametrize("text", WRITTEN.values(), ids=WRITTEN.keys())
    def test_a_written_document_is_read_by_the_split(self, text, ways):
        assert read_outcome(parse_ntriples, text) == read_outcome(parse_every_line, text)
        assert ways == [False]

    @pytest.mark.parametrize("name", sorted(CANONICAL))
    def test_a_canonical_document_is_read_by_the_split(self, name, ways):
        text = DOCUMENTS[name]
        assert read_outcome(parse_ntriples, text) == read_outcome(parse_every_line, text)
        assert ways == [False]

    def test_a_leap_day_and_the_writers_escapes_are_read_by_the_split(self, ways):
        for line in (
            f'{S} {P} "2020-02-29"^^{DATE} .',
            f'{S} {P} "\\"\\\\\\n\\r\\u0009\\u007F\\\\t\\\\u00E9" .',
        ):
            text = WRITTEN["case12_registry"] + line + "\n"
            assert read_outcome(parse_ntriples, text) == read_outcome(parse_every_line, text)
        assert ways == [False, False]

    @pytest.mark.parametrize("name", sorted(OTHER))
    def test_any_other_document_is_read_by_its_way(self, name, ways):
        text = OTHER[name]
        assert read_outcome(parse_ntriples, text) == read_outcome(parse_every_line, text)
        assert ways == ([True] if name in UNCUT else [False, True] if name in MISREAD else [False])

    def test_an_error_is_found_on_its_line_without_the_line_pattern(self, ways, monkeypatch):
        text = WRITTEN["case12_registry"] + LAST_LINE["relative IRI"] + "\n"
        last = text.count("\n")
        matched = []

        class Spy:
            def fullmatch(self, line, pattern=ntriples._LINE):
                matched.append(line)
                return pattern.fullmatch(line)

        monkeypatch.setattr(ntriples, "_LINE", Spy())
        with pytest.raises(ParseError) as err:
            parse_ntriples(text)
        assert (err.value.line, err.value.column) == (last, 35)
        assert ways == [False] and matched == [LAST_LINE["relative IRI"]]

    def test_flaws_at_random_lines_read_as_the_line_pattern_reads_them(self):
        rng = random.Random(31)
        for i in range(250):
            lines, names = flawed(rng)
            for end in ("\n", "\r\n"):
                text = end.join(lines) + end
                assert read_outcome(parse_ntriples, text) == read_outcome(parse_every_line, text), (
                    i,
                    names,
                    end,
                )


class TestRoundTrip:
    def test_thousand_random_graphs_small(self):
        # the full-size fuzz (1000 graphs up to 1000 triples) runs in the
        # acceptance suite; keep a fast version here for development
        rng = random.Random(11)
        for i in range(60):
            g = random_graph(rng, 120)
            again = parse_ntriples(serialize_ntriples(g))
            assert again == g, f"round-trip failed on graph {i}"

    def test_equal_terms_are_one_object(self):
        integer = "<http://www.w3.org/2001/XMLSchema#integer>"
        a, b, c, d = parse_ntriples(
            '<http://e.org/s> <http://e.org/p> "v" .\n'
            '<http://e.org/s> <http://e.org/q> "v" .\n'
            f'_:b <http://e.org/p> "1"^^{integer} .\n'
            f'_:b <http://e.org/q> "1"^^{integer} .\n'
        )
        assert a.s is b.s and a.o is b.o
        assert a.p is c.p and b.p is d.p
        assert c.s is d.s and c.o is d.o

    def test_blank_labels_preserved(self):
        text = "_:keep <http://e.org/p> _:alsokeep .\n"
        g = parse_ntriples(text)
        assert serialize_ntriples(g) == text

    def test_control_characters_round_trip(self):
        g = Graph(
            [Triple(Iri("http://e.org/s"), Iri("http://e.org/p"), Literal("a\x00\x1f\x7f\r\tb"))]
        )
        assert parse_ntriples(serialize_ntriples(g)) == g
