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
document, where it first occurs, by one rule (`_spelling`): its escapes
decoded, checked as the term's constructor checks it (`terms.check_iri`,
`terms.literal_text`), and stored as the term's canonical spelling, or
reported as that term's error at its line and column. No term object is
made. A text the writer made is its own spelling.
"""

from __future__ import annotations

import re

from .errors import ParseError, TriplifyError
from .graph import Graph
from .lexer import BLANK, IRIREF, LANGTAG, STRING, split_lines, unescape
from .terms import RDF_LANGSTRING, XSD_STRING, check_iri, literal_parts, literal_text

# A literal; groups: its string, datatype IRI and language tag.
_LITERAL = rf"({STRING})(?:\^\^[ \t]*({IRIREF})|({LANGTAG}))?"
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


def _spelling(raw: str, lineno: int, column: int, datatypes: dict[str, str]) -> str:
    """The canonical spelling of the term a slot's matched text spells,
    told by its first character (`<`, `_` or `"`) and checked as the
    term's constructor checks it; a text that spells no term is a
    ParseError at `column`. A literal's datatype text is read once, into
    `datatypes`, and a bad one is a ParseError at its `<`."""
    try:
        if raw[0] == "<":
            if "\\" not in raw:
                check_iri(raw[1:-1])
                return raw
            return f"<{check_iri(unescape(raw[1:-1], lineno, column))}>"
        if raw[0] == "_":
            return raw  # the slot pattern is BLANK_NODE_LABEL
        string, tail = literal_parts(raw)
        lexical = unescape(string, lineno, column)
        if not tail:
            return literal_text(lexical, XSD_STRING.value)
        if tail[0] == "@":
            return literal_text(lexical, RDF_LANGSTRING.value, tail[1:])
        datatype = tail[2:].lstrip(" \t")  # `^^`, maybe spaces or tabs, `<...>`
        iri = datatypes.get(datatype)
        if iri is None:
            where = column + len(raw) - len(datatype)
            iri = datatypes[datatype] = _spelling(datatype, lineno, where, datatypes)[1:-1]
        return literal_text(lexical, iri)
    except ParseError:
        raise  # a bad escape, or a bad datatype IRI, at its own column
    except TriplifyError as exc:
        raise ParseError(str(exc), lineno, column) from None


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

    A slot's text not yet in the term table is read once, where it
    first occurs, into the canonical spelling of the term it spells, and
    every later occurrence finds its ID: in the term table when the text
    is that spelling, as every text the writer makes is, else among the
    texts read. So two spellings of one term (`<http://e.org/\\u0041>` and
    `<http://e.org/A>`, `"a"` and `"a"^^xsd:string`) get one ID.
    """
    g = Graph()
    get = g._ids.get  # a canonical text -> its ID
    aliases: dict[str, int] = {}  # a text read that is not its spelling -> its ID
    datatypes: dict[str, str] = {}  # a datatype's matched text -> its IRI's text
    intern = g._intern
    triples = g._triples  # a new graph, no index to keep current
    subject_term, predicate_term, object_term = _SLOT_TERMS

    def read(raw: str, lineno: int, column: int) -> int:
        """The ID of a slot's text not in the term table as it stands."""
        i = aliases.get(raw)
        if i is None:
            spelling = _spelling(raw, lineno, column, datatypes)
            i = intern(spelling)
            if spelling != raw:
                aliases[raw] = i
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
