"""N-Triples reading and writing.

Output is canonical: one triple per line, lines sorted lexicographically,
UTF-8, no BOM. Parsing accepts any valid N-Triples document (plus full-line
and trailing comments) but one whose blank node label holds a `:`, which
the term grammar shared with Turtle leaves out. It is the exact inverse of
serialization: blank node labels are preserved, so parse(serialize(g)) == g.
A graph's term table already holds each term's canonical spelling, so
writing joins those spellings and reading stores them.

A line is read one of two ways. A line in the canonical shape `S P O .`,
which is every line the writer makes, is split at its first two spaces,
and each of the three texts is checked for its slot: a text already in
the term table by its first character alone (a subject is not a literal,
a predicate is an IRI), a new text by a full match of that slot's term
pattern. Every other line goes to one line pattern composed from the term
terminals of `triplify.lexer`, the term grammar Turtle and SPARQL use:
so does a line with tabs, runs of spaces or a comment, a blank node label
touching the next term (`_:a<http://e.org/p> ...` parses), and every line
with an error, which that pattern rescans to name the slot that broke.
Both ways check the whole line before any of its terms is read, and end
in one block that reads the line's new terms, so they give the same
graph, term IDs and errors.

As in Turtle and the RDF 1.1 grammar, a line (and a comment) ends at LF,
CRLF or a lone CR, an IRI may hold only `\\u`/`\\U` escapes (`<a\\'b>` is
a ParseError) and a string no raw CR. A slot's text is read once per
document, where it first occurs, and no term object is made. A text that
is already the canonical spelling of a valid term is stored as read,
after the checks the term's constructor makes (`_as_read`); that is every
text the writer makes. Any other text, one with an escape, a datatype of
xsd:string, a raw control character or a check that fails, is made into
a term by `_term`, and stored as its canonical spelling or reported as
that term's error, at its line and column.
"""

from __future__ import annotations

import re
from typing import Callable, Optional

from .errors import ParseError, TriplifyError
from .graph import Graph
from .lexer import BLANK, IRIREF, LANGTAG, STRING, split_lines, unescape
from .terms import (
    _DATATYPES,
    _LANGUAGE_TAG,
    RDF_LANGSTRING,
    XSD_STRING,
    BlankNode,
    Iri,
    Literal,
    Term,
    check_iri,
    literal_parts,
)

# A literal; groups: its string, datatype IRI and language tag.
_LITERAL = rf"({STRING})(?:\^\^[ \t]*({IRIREF})|({LANGTAG}))?"
_LITERAL_PARTS = re.compile(_LITERAL)
# The slots of a triple line, in order; groups 1-3: subject, predicate, object.
_SLOTS = (
    ("subject IRI or blank node", rf"({IRIREF}|{BLANK})"),
    ("predicate IRI", rf"({IRIREF})"),
    ("object term", rf"({IRIREF}|{BLANK}|{_LITERAL})"),
    ("'.' at end of triple", r"\."),
)
_LINE = re.compile(
    r"[ \t]*(?:" + r"[ \t]*".join(f"(?:{slot})" for _, slot in _SLOTS) + r"[ \t]*)?(?:#.*)?"
)
_WS = re.compile(r"[ \t]*")
# Each slot's term pattern alone, for a text of a canonical line.
_SLOT_TERMS = tuple(re.compile(slot).fullmatch for _, slot in _SLOTS[:3])
# What keeps a literal's text from being its canonical spelling, or from
# being a valid literal: an escape, a character `escape_literal` escapes
# (a control character or DEL), or a lone surrogate.
_NOT_AS_READ = re.compile(r"[\\\x00-\x1f\x7f\ud800-\udfff]")


def serialize_ntriples(g: Graph) -> str:
    """Render a graph as canonical N-Triples text.

    The term table holds each term's spelling; the lines are sorted as text.
    """
    if not g._triples:
        return ""
    spelt = g._terms
    lines = [f"{spelt[s]} {spelt[p]} {spelt[o]} ." for s, p, o in g._triples]
    lines.sort()
    lines.append("")  # the final newline, without a second copy of the text
    return "\n".join(lines)


def _syntax_error(line: str, lineno: int) -> ParseError:
    """Rescan a line `_LINE` rejects slot by slot; name the slot that broke."""
    i = 0
    for what, slot in _SLOTS:
        i = _WS.match(line, i).end()
        m = re.compile(slot).match(line, i)
        if m is None:
            return ParseError(f"expected {what}", lineno, i + 1)
        i = m.end()
    # every slot matched, so what follows the '.' is not a comment
    return ParseError("unexpected text after '.'", lineno, _WS.match(line, i).end() + 1)


def _term(raw: str, lineno: int, column: int, datatypes: dict[str, Iri]) -> Term:
    """The term a slot's matched text spells, told by its first character
    (`<`, `_` or `"`); a term that cannot be made is a ParseError at
    `column`. A literal's datatype IRI is made once per text, and a bad
    one is a ParseError at its `<`."""
    try:
        if raw[0] == "<":
            return Iri(unescape(raw[1:-1], lineno, column))
        if raw[0] == "_":
            return BlankNode(raw[2:])
        m = _LITERAL_PARTS.fullmatch(raw)
        string, datatype, language = m.groups()
        lexical = unescape(string[1:-1], lineno, column)
        if language is not None:
            return Literal(lexical, RDF_LANGSTRING, language[1:])
        if datatype is None:
            return Literal(lexical)
        iri = datatypes.get(datatype)
        if iri is None:
            iri = datatypes[datatype] = _term(datatype, lineno, column + m.start(2), datatypes)
        return Literal(lexical, iri)
    except ParseError:
        raise  # a bad escape, or a bad datatype IRI, at its own column
    except TriplifyError as exc:
        raise ParseError(str(exc), lineno, column) from None


def _anything(lexical: str) -> bool:
    return True


def _nothing(lexical: str) -> bool:
    return False


def _datatype_test(tail: str) -> Callable[[str], object]:
    """For the text after a literal's string, `^^` and its datatype: the
    test its lexical form must pass to be stored as read. It passes
    nothing when no such literal is: xsd:string (spelt without it),
    rdf:langString (a literal with a tag), or an invalid IRI, which a
    space after `^^` also makes, as `<` or a space then starts it."""
    datatype = tail[3:-1]
    if datatype in (XSD_STRING.value, RDF_LANGSTRING.value):
        return _nothing
    try:
        check_iri(datatype)
    except TriplifyError:
        return _nothing
    checked = _DATATYPES.get(datatype)
    return _anything if checked is None else checked[0]


def _as_read(raw: str, tests: dict[str, Callable[[str], object]]) -> Optional[str]:
    """raw, a slot's matched text, when it is the canonical spelling of a
    term its constructor accepts; else None. An IRI is checked as `Iri`
    checks it; a blank node label needs no check, as the slot pattern is
    BLANK_NODE_LABEL; a literal is checked as `Literal` checks it, its
    datatype's test made once per datatype text, in `tests`."""
    if raw[0] == "<":
        try:
            check_iri(raw[1:-1])
        except TriplifyError:
            return None
        return raw
    if raw[0] == "_":
        return raw
    if _NOT_AS_READ.search(raw) is not None:
        return None
    lexical, tail = literal_parts(raw)
    if not tail:
        return raw
    if tail[0] == "@":
        return raw if _LANGUAGE_TAG.fullmatch(tail, 1) else None
    test = tests.get(tail)
    if test is None:
        test = tests[tail] = _datatype_test(tail)
    return raw if test(lexical) else None


def parse_ntriples(text: str) -> Graph:
    """Parse an N-Triples document into a graph (duplicate lines collapse).

    A line in the canonical shape `S P O .` (single spaces, nothing after
    the dot) is split at its first two spaces; a text already in the term
    table must only start right for its slot (a subject is not a literal,
    a predicate is an IRI), and a new one must fully match that slot's term
    pattern. Any other line, and a line that fails one of these checks, is
    matched by the full line pattern, which allows comments and any spacing
    and names the slot a syntax error is in. All three slots are checked
    before any term is read, so a line with a syntax error reports that
    error, not a term error from an earlier slot.

    The graph's term table is the reader's: a text that is a term's
    canonical spelling, and valid, is stored as it is read, with no term
    made; every later occurrence finds its ID there. Any other text is
    made into a term once, where it first occurs, and stored as that
    term's spelling, so two spellings of one term (`<http://e.org/\\u0041>`
    and `<http://e.org/A>`, `"a"` and `"a"^^xsd:string`) get one ID.
    """
    g = Graph()
    get = g._ids.get  # a canonical text -> its ID
    aliases: dict[str, int] = {}  # any other text read -> its term's ID
    datatypes: dict[str, Iri] = {}  # a datatype's matched text -> its IRI
    tests: dict[str, Callable[[str], object]] = {}  # a literal's `^^<...>` -> its test
    intern = g._intern
    triples = g._triples  # a new graph, no index to keep current
    subject_term, predicate_term, object_term = _SLOT_TERMS

    def read(raw: str, lineno: int, column: int) -> int:
        """The ID of a slot's text not in the term table as it stands."""
        i = aliases.get(raw)
        if i is None:
            spelling = _as_read(raw, tests)
            if spelling is not None:
                return intern(spelling)
            spelling = _term(raw, lineno, column, datatypes).to_ntriples()
            i = aliases[raw] = intern(spelling)
        return i

    for lineno, line in enumerate(split_lines(text), start=1):
        m = None
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[2][-2:] == " .":
            s, p, o = parts
            o = o[:-2]
            subject, predicate, obj = get(s), get(p), get(o)
            canonical = (
                (s[0] != '"' if subject is not None else subject_term(s))
                and (p[0] == "<" if predicate is not None else predicate_term(p))
                and (obj is not None or object_term(o))
            )
        else:
            canonical = False
        if not canonical:
            m = _LINE.fullmatch(line)
            if m is None:
                raise _syntax_error(line, lineno)
            s, p, o = m.group(1, 2, 3)
            if s is None:
                continue  # blank or comment-only line
            subject, predicate, obj = get(s), get(p), get(o)
        # a text twice on one line is read twice if new; both get one ID
        if subject is None:
            subject = read(s, lineno, m.start(1) + 1 if m else 1)
        if predicate is None:
            predicate = read(p, lineno, m.start(2) + 1 if m else len(s) + 2)
        if obj is None:
            obj = read(o, lineno, m.start(3) + 1 if m else len(s) + len(p) + 3)
        triples[subject, predicate, obj] = None
    return g
