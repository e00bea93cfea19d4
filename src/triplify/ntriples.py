"""N-Triples reading and writing.

Output is canonical: one triple per line, lines sorted lexicographically,
UTF-8, no BOM. Parsing accepts any valid N-Triples document (plus full-line
and trailing comments) but one whose blank node label holds a `:`, which
the term grammar shared with Turtle leaves out. It is the exact inverse of
serialization: blank node labels are preserved, so parse(serialize(g)) == g.

The reader matches each line with one pattern composed from the term
terminals of `triplify.lexer`, the term grammar Turtle and SPARQL use.
As in Turtle and the RDF 1.1 grammar, a line (and a comment) ends at LF,
CRLF or a lone CR, an IRI may hold only `\\u`/`\\U` escapes (`<a\\'b>` is
a ParseError), a string no raw CR, and a blank node label ends where its
characters do (`_:a<http://e.org/p> ...` parses).
One table maps the text each term was matched from to its term ID: a
text is unescaped, validated and given an ID once per document, where it
first occurs; no `Triple` is built, as the line's slots already fix each
term's position.
"""

from __future__ import annotations

import re

from .errors import ParseError, TriplifyError
from .graph import Graph
from .lexer import BLANK, IRIREF, LANGTAG, STRING, unescape
from .terms import RDF_LANGSTRING, BlankNode, Iri, Literal, Term

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


def serialize_ntriples(g: Graph) -> str:
    """Render a graph as canonical N-Triples text.

    Each term ID is spelt once; the lines are sorted as text.
    """
    if not g._triples:
        return ""
    spelt = [term.to_ntriples() for term in g._terms]
    lines = [f"{spelt[s]} {spelt[p]} {spelt[o]} ." for s, p, o in g._triples]
    del spelt  # freed before the text is joined
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


def _build(lineno: int, column: int, factory, *args):
    """factory(*args), with a TriplifyError re-raised as a ParseError there."""
    try:
        return factory(*args)
    except TriplifyError as exc:
        raise ParseError(str(exc), lineno, column) from None


def _term(raw: str, lineno: int, column: int, datatypes: dict[str, Iri]) -> Term:
    """The term a slot's matched text spells, told by its first character
    (`<`, `_` or `"`); a literal's datatype IRI is made once per text, and
    a bad one is a ParseError at its `<`."""
    if raw[0] == "<":
        return _build(lineno, column, Iri, unescape(raw[1:-1], lineno, column))
    if raw[0] == "_":
        return _build(lineno, column, BlankNode, raw[2:])
    m = _LITERAL_PARTS.fullmatch(raw)
    string, datatype, language = m.groups()
    lexical = unescape(string[1:-1], lineno, column)
    if language is not None:
        return _build(lineno, column, Literal, lexical, RDF_LANGSTRING, language[1:])
    if datatype is None:
        return _build(lineno, column, Literal, lexical)
    iri = datatypes.get(datatype)
    if iri is None:
        iri = datatypes[datatype] = _term(datatype, lineno, column + m.start(2), datatypes)
    return _build(lineno, column, Literal, lexical, iri)


def parse_ntriples(text: str) -> Graph:
    """Parse an N-Triples document into a graph (duplicate lines collapse).

    The reader hands the graph term IDs: each distinct IRI, blank node or
    literal text is unescaped, validated and interned once, where it
    first occurs, and every later occurrence reuses its ID. Interning is
    by term, so two spellings of one term (`<http://e.org/\\u0041>` and
    `<http://e.org/A>`, `"a"` and `"a"^^xsd:string`) get one ID.
    """
    if text.startswith("\ufeff"):
        text = text[1:]
    if "\r" in text:  # a line ends at LF, CRLF or CR; no token holds a raw CR
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    g = Graph()
    ids: dict[str, int] = {}  # a term's matched text -> its ID
    datatypes: dict[str, Iri] = {}  # a datatype's matched text -> its IRI
    triples = g._triples  # a new graph, no index to keep current
    for lineno, line in enumerate(text.split("\n"), start=1):
        m = _LINE.fullmatch(line)
        if m is None:
            raise _syntax_error(line, lineno)
        s, p, o = m.group(1, 2, 3)
        if s is None:
            continue  # blank or comment-only line
        subject = ids.get(s)
        if subject is None:
            subject = ids[s] = g._intern(_term(s, lineno, m.start(1) + 1, datatypes))
        predicate = ids.get(p)
        if predicate is None:
            predicate = ids[p] = g._intern(_term(p, lineno, m.start(2) + 1, datatypes))
        obj = ids.get(o)
        if obj is None:
            obj = ids[o] = g._intern(_term(o, lineno, m.start(3) + 1, datatypes))
        triples[subject, predicate, obj] = None
    return g
