"""N-Triples reading and writing.

Output is canonical: one triple per line, lines sorted lexicographically,
UTF-8, no BOM. Parsing accepts any valid N-Triples document (plus full-line
and trailing comments) and is the exact inverse of serialization: blank
node labels are preserved, so parse(serialize(g)) == g.

The reader matches each line with one pattern composed from the term
terminals of `triplify.lexer`, the term grammar Turtle and SPARQL use.
As in Turtle and the RDF 1.1 grammar, an IRI may hold only `\\u`/`\\U`
escapes (`<a\\'b>` is a ParseError), a string no raw CR, and a blank node
label ends where its characters do (`_:a<http://e.org/p> ...` parses).
"""

from __future__ import annotations

import re

from .errors import ParseError, TriplifyError
from .graph import Graph
from .lexer import BLANK, IRIREF, LANGTAG, STRING, unescape
from .terms import RDF_LANGSTRING, BlankNode, Iri, Literal, Term, Triple

# The slots of a triple line, in order; groups: subject, predicate, IRI or
# blank object, string object, its datatype, its language tag.
_SLOTS = (
    ("subject IRI or blank node", rf"({IRIREF}|{BLANK})"),
    ("predicate IRI", rf"({IRIREF})"),
    ("object term", rf"({IRIREF}|{BLANK})|({STRING})(?:\^\^[ \t]*({IRIREF})|({LANGTAG}))?"),
    ("'.' at end of triple", r"\."),
)
_LINE = re.compile(
    r"[ \t]*(?:" + r"[ \t]*".join(f"(?:{slot})" for _, slot in _SLOTS) + r"[ \t]*)?(?:#.*)?"
)
_WS = re.compile(r"[ \t]*")


def serialize_ntriples(g: Graph) -> str:
    """Render a graph as canonical N-Triples text."""
    lines = sorted(t.to_line() for t in g)
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


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


def _node(raw: str, lineno: int, column: int) -> Term:
    """The IRI or blank node a matched IRIREF or BLANK spells."""
    if raw[0] == "<":
        return _build(lineno, column, Iri, unescape(raw[1:-1], lineno, column))
    return _build(lineno, column, BlankNode, raw[2:])


def parse_ntriples(text: str) -> Graph:
    """Parse an N-Triples document into a graph (duplicate lines collapse)."""
    if text.startswith("\ufeff"):
        text = text[1:]
    g = Graph()
    for lineno, line in enumerate(text.split("\n"), start=1):
        if line.endswith("\r"):
            line = line[:-1]
        m = _LINE.fullmatch(line)
        if m is None:
            raise _syntax_error(line, lineno)
        s, p, o, string, datatype, language = m.groups()
        if s is None:
            continue  # blank or comment-only line
        subject = _node(s, lineno, m.start(1) + 1)
        predicate = _node(p, lineno, m.start(2) + 1)
        if string is None:
            obj = _node(o, lineno, m.start(3) + 1)
        else:
            column = m.start(4) + 1
            lexical = unescape(string[1:-1], lineno, column)
            if language is not None:
                obj = _build(lineno, column, Literal, lexical, RDF_LANGSTRING, language[1:])
            elif datatype is not None:
                datatype = _node(datatype, lineno, m.start(5) + 1)
                obj = _build(lineno, column, Literal, lexical, datatype)
            else:
                obj = Literal(lexical)
        g.add(Triple(subject, predicate, obj))
    return g
