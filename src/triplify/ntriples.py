"""N-Triples reading and writing.

Output is canonical: one triple per line, lines sorted lexicographically,
UTF-8, no BOM. Parsing accepts any valid N-Triples document (plus full-line
and trailing comments) and is the exact inverse of serialization: blank
node labels are preserved, so parse(serialize(g)) == g.

The reader matches each line with one pattern composed from the term
terminals of `triplify.lexer`, the term grammar Turtle and SPARQL use.
As in Turtle and the RDF 1.1 grammar, a line (and a comment) ends at LF,
CRLF or a lone CR, an IRI may hold only `\\u`/`\\U` escapes (`<a\\'b>` is
a ParseError), a string no raw CR, and a blank node label ends where its
characters do (`_:a<http://e.org/p> ...` parses).
Each distinct term text is unescaped, validated and given a term ID once
per document, where it first occurs; no `Triple` is built, as the
line's slots already fix each term's position.
"""

from __future__ import annotations

import re

from .errors import ParseError, TriplifyError
from .graph import Graph
from .lexer import BLANK, IRIREF, LANGTAG, STRING, unescape
from .terms import RDF_LANGSTRING, BlankNode, Iri, Literal

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


def _node(g: Graph, ids: dict, raw: str, lineno: int, column: int) -> int:
    """The ID of the IRI or blank node a matched IRIREF or BLANK spells,
    the term made and interned at raw's first occurrence in `ids`."""
    if raw[0] == "<":
        term = _build(lineno, column, Iri, unescape(raw[1:-1], lineno, column))
    else:
        term = _build(lineno, column, BlankNode, raw[2:])
    i = ids[raw] = g._intern(term)
    return i


def _literal(g: Graph, ids: dict, datatypes: dict, m: re.Match, lineno: int) -> int:
    """The ID of the literal `m` matched as object, the term made and
    interned at the first occurrence of its groups in `ids`."""
    string, datatype, language = key = m.group(4, 5, 6)
    column = m.start(4) + 1
    lexical = unescape(string[1:-1], lineno, column)
    if language is not None:
        term = _build(lineno, column, Literal, lexical, RDF_LANGSTRING, language[1:])
    elif datatype is not None:
        iri = datatypes.get(datatype)
        if iri is None:
            at = m.start(5) + 1
            value = unescape(datatype[1:-1], lineno, at)
            iri = datatypes[datatype] = _build(lineno, at, Iri, value)
        term = _build(lineno, column, Literal, lexical, iri)
    else:
        term = _build(lineno, column, Literal, lexical)
    i = ids[key] = g._intern(term)
    return i


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
    ids: dict = {}  # matched text (a tuple of groups for literals) -> ID
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
            subject = _node(g, ids, s, lineno, m.start(1) + 1)
        predicate = ids.get(p)
        if predicate is None:
            predicate = _node(g, ids, p, lineno, m.start(2) + 1)
        if o is not None:
            obj = ids.get(o)
            if obj is None:
                obj = _node(g, ids, o, lineno, m.start(3) + 1)
        else:
            obj = ids.get(m.group(4, 5, 6))
            if obj is None:
                obj = _literal(g, ids, datatypes, m, lineno)
        triples[subject, predicate, obj] = None
    return g
