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
Each distinct term text is unescaped and validated once per document,
where it first occurs, and every later occurrence shares that object.
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


def _node(terms: dict, raw: str, lineno: int, column: int) -> Term:
    """The IRI or blank node a matched IRIREF or BLANK spells, made at its
    first occurrence in `terms` and shared by every later one."""
    term = terms.get(raw)
    if term is None:
        if raw[0] == "<":
            term = _build(lineno, column, Iri, unescape(raw[1:-1], lineno, column))
        else:
            term = _build(lineno, column, BlankNode, raw[2:])
        terms[raw] = term
    return term


def _literal(terms: dict, m: re.Match, lineno: int) -> Literal:
    """The literal `m` matched as object, made once per distinct text in `terms`."""
    string, datatype, language = key = m.group(4, 5, 6)
    term = terms.get(key)
    if term is None:
        column = m.start(4) + 1
        lexical = unescape(string[1:-1], lineno, column)
        if language is not None:
            term = _build(lineno, column, Literal, lexical, RDF_LANGSTRING, language[1:])
        elif datatype is not None:
            datatype = _node(terms, datatype, lineno, m.start(5) + 1)
            term = _build(lineno, column, Literal, lexical, datatype)
        else:
            term = _build(lineno, column, Literal, lexical)
        terms[key] = term
    return term


def parse_ntriples(text: str) -> Graph:
    """Parse an N-Triples document into a graph (duplicate lines collapse).

    Equal terms come out as one object: each distinct IRI, blank node or
    literal text is unescaped and validated once, where it first occurs.
    """
    if text.startswith("\ufeff"):
        text = text[1:]
    g = Graph()
    terms: dict = {}  # matched text (a tuple of groups for literals) -> term
    for lineno, line in enumerate(text.split("\n"), start=1):
        if line.endswith("\r"):
            line = line[:-1]
        m = _LINE.fullmatch(line)
        if m is None:
            raise _syntax_error(line, lineno)
        s, p, o = m.group(1, 2, 3)
        if s is None:
            continue  # blank or comment-only line
        subject = _node(terms, s, lineno, m.start(1) + 1)
        predicate = _node(terms, p, lineno, m.start(2) + 1)
        if o is not None:
            obj = _node(terms, o, lineno, m.start(3) + 1)
        else:
            obj = _literal(terms, m, lineno)
        g.add(Triple(subject, predicate, obj))
    return g
