"""N-Triples reading and writing.

Output is canonical: one triple per line, lines sorted lexicographically,
UTF-8, no BOM. Parsing accepts any valid N-Triples document (plus full-line
and trailing comments) but one whose blank node label holds a `:`, which
the term grammar shared with Turtle leaves out. It is the exact inverse of
serialization: blank node labels are preserved, so parse(serialize(g)) == g.
A graph's term table already holds each term's canonical spelling, so
writing joins those spellings and reading stores them.

A document is read in bulk first (`_read_written`) when it has the shape
the writer gives it, that of canonical N-Triples (RDF 1.1 N-Triples,
section 4): no BOM and no CR, every line `S P O .` ended by LF, and no
escape the writer never makes and no xsd:string datatype, which one scan
of the text finds (`terms.holds_unwritten_spelling`). One loop splits
each line at its first two spaces and gives each new text the next ID;
then each distinct text is checked once, by kind, in batches. All IRIs
are matched at once by `terms.IRI_SPELLING`, the rule `terms.check_iri`
states with no `\\`, so an escaped IRI is refused; all blank node labels
at once; and literals grouped by the tail after their closing quote, each
group by `terms.own_literal_spellings`. No subject may be a literal and
every predicate must be an IRI. A document the bulk step refuses,
whatever the reason, is read from its start by the line reader, the only
reader of any other document and the only place that makes a positioned
error; the two give the same graph, term IDs and triple order. So a
document with an error the term checks find is split twice.

The line reader reads a line one of two ways. A line in the canonical
shape `S P O .` is split at its first two spaces, and each of the three
texts is checked for its slot: a text already in the term table by its
first character alone (a subject is not a literal, a predicate is an
IRI), a new text by a full match of that slot's term pattern. Every other
line goes to one line pattern composed from the term terminals of
`triplify.lexer`, the term grammar Turtle and SPARQL use: so does a line
with tabs, runs of spaces or a comment, a blank node label touching the
next term (`_:a<http://e.org/p> ...` parses), and every line with an
error, which that pattern rescans to name the slot that broke. Both ways
check the whole line before any of its terms is read, and end in one
block that reads the line's new terms, so they give the same graph, term
IDs and errors.

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
from itertools import compress, count
from operator import itemgetter, methodcaller
from typing import Optional

from .errors import ParseError, TriplifyError
from .graph import Graph
from .lexer import BLANK, IRIREF, LANGTAG, STRING, split_lines, unescape
from .terms import (
    IRI_SPELLING,
    RDF_LANGSTRING,
    XSD_STRING,
    check_iri,
    holds_unwritten_spelling,
    literal_parts,
    literal_text,
    own_literal_spellings,
)

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

# IRIs or blank node labels joined by LF, which no term holds, so a run
# splits into its terms one way only.
_IRIS = re.compile(rf"{IRI_SPELLING}(?:\n{IRI_SPELLING})*")
_BLANKS = re.compile(rf"{BLANK}(?:\n{BLANK})*")


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


def _read_written(text: str) -> Optional[Graph]:
    """The graph of a document in the shape `serialize_ntriples` writes,
    read in bulk, or None, and the line reader reads it.

    The shape: no BOM and no CR, every line `S P O .` and ended by LF,
    and no spelling the writer never makes that one scan of the text
    finds (`holds_unwritten_spelling`), a foreign document's usual mark,
    so such a document is refused before the loop runs. One loop splits each line at its first two spaces and gives each text
    its ID as the line reader would, in the same order. Then each distinct
    text is checked once, by kind: it must be its term's own spelling in a
    slot that term may hold."""
    if not text.endswith(" .\n") or text.startswith("\ufeff") or "\r" in text:
        return None
    if holds_unwritten_spelling(text):
        return None  # an escape the writer never makes, or an xsd:string datatype
    lines = text.split(" .\n")
    lines.pop()  # the empty text after the last line's end
    if text.count("\n") != len(lines):
        return None  # a line holds a LF: a comment, a blank line or other spacing
    g = Graph()
    terms, ids, triples = g._terms, g._ids, g._triples
    get, spell = ids.get, terms.append
    try:
        for line in lines:
            s, p, o = line.split(" ", 2)
            a = get(s)
            if a is None:
                a = ids[s] = len(terms)
                spell(s)
            b = get(p)
            if b is None:
                b = ids[p] = len(terms)
                spell(p)
            c = get(o)
            if c is None:
                c = ids[o] = len(terms)
                spell(o)
            triples[a, b, c] = None
    except ValueError:
        return None  # fewer than three texts on a line
    del lines

    try:
        kinds = list(map(itemgetter(0), terms))
    except IndexError:
        return None  # an empty text
    iris, blanks, literals = (list(compress(terms, map(k.__eq__, kinds))) for k in '<_"')
    if len(iris) + len(blanks) + len(literals) != len(terms):
        return None  # a text no term starts with
    for run, texts in ((_IRIS, iris), (_BLANKS, blanks)):
        if texts and run.fullmatch("\n".join(texts)) is None:
            return None
    groups: dict[str, list[str]] = {}  # literals by the tail after the last `"`
    for head, _, tail in map(methodcaller("rpartition", '"'), literals):
        if not head:
            return None  # its only `"` is its first character
        groups.setdefault(tail, []).append(head[1:])
    if not all(map(own_literal_spellings, groups, groups.values())):
        return None
    literal_ids = set(compress(count(), map('"'.__eq__, kinds)))
    if not literal_ids.isdisjoint(map(itemgetter(0), triples)):
        return None  # a literal subject
    if any(kinds[i] != "<" for i in set(map(itemgetter(1), triples))):
        return None  # a predicate that is not an IRI
    return g


def parse_ntriples(text: str) -> Graph:
    """Parse an N-Triples document into a graph (duplicate lines collapse).

    A document in the shape the writer gives it is read in bulk, every
    distinct text checked once, by kind; any other document, and one whose
    texts fail a check there, is read from its start by the line reader.

    The line reader: a line in the canonical shape `S P O .` (single
    spaces, nothing after the dot) is split at its first two spaces; a
    text already in the term table must only start right for its slot (a
    subject is not a literal, a predicate is an IRI), and a new one must
    fully match that slot's term pattern. Any other line, and a line that
    fails one of these checks, is matched by the full line pattern, which
    allows comments and any spacing and names the slot a syntax error is
    in. All three slots are checked before any term is read, so a line
    with a syntax error reports that error, not a term error from an
    earlier slot.

    A slot's text not yet in the term table is read once, where it
    first occurs, into the canonical spelling of the term it spells, and
    every later occurrence finds its ID: in the term table when the text
    is that spelling, as every text the writer makes is, else among the
    texts read. So two spellings of one term (`<http://e.org/\\u0041>` and
    `<http://e.org/A>`, `"a"` and `"a"^^xsd:string`) get one ID.
    """
    g = _read_written(text)
    if g is not None:
        return g
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
