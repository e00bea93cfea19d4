"""N-Triples reading and writing.

Output is canonical: one triple per line, lines sorted lexicographically,
UTF-8, no BOM. Parsing accepts any valid N-Triples document (plus full-line
and trailing comments) but one whose blank node label holds a `:`, which
the term grammar shared with Turtle leaves out. It is the exact inverse of
serialization: blank node labels are preserved, so parse(serialize(g)) == g.
A graph's term table already holds each term's canonical spelling, so
writing joins those spellings and reading stores them.

As in Turtle and the RDF 1.1 grammar, a leading BOM is dropped, a line
(and a comment) ends at LF, CRLF or a lone CR, an IRI may hold only
`\\u`/`\\U` escapes (`<a\\'b>` is a ParseError) and a string no raw CR.

One reader reads every document, in three steps (`_read`).

1. The lines (`_lines`). When every line is `S P O .`, as in a document
   the writer made, the text is split at ` .\\n`. Else, when every line
   but the blank and comment-only ones ends in ` .`, those lines are cut
   there. Any other document is read a line at a time by one line
   pattern composed from the term terminals of `triplify.lexer`, the
   term grammar Turtle and SPARQL use, which allows any spacing, comments
   and a blank node label touching the next term (`_:a<http://e.org/p>`);
   each match is joined as `S P O`, up to the first line it refuses.
2. One loop splits each `S P O` at its first two spaces and gives each
   new text the next ID, subject, predicate, object, line by line.
3. Each distinct text is checked once, by kind, in batches (`_check`).
   All IRIs are matched at once by `terms.IRI_SPELLING`, the rule
   `terms.check_iri` states with no `\\`; all blank node labels at once;
   literals grouped by the tail after their closing quote, each group by
   `terms.own_literal_spellings`. A text no batch settles (an escape,
   `^^xsd:string`, spacing after `^^`, a raw tab, or an error) must fully
   match the object slot's term pattern, and is read by one rule
   (`_spelling`): its escapes decoded, checked as the term's constructor
   checks it (`terms.check_iri`, `terms.literal_text`), and put at its ID
   as the term's canonical spelling. When two texts spell one term, the
   IDs are renumbered by first occurrence, so the two share one. No
   subject may be a literal and every predicate must be an IRI. No term
   object is made.

Whichever way the lines were found, the graph, its term IDs and its
triple order are those of reading every line by the line pattern. When
a text is refused or a slot rule breaks, a second loop, paid only then,
finds the first line that holds one (`_raise_first_error`), and reads
that line alone by the line pattern and `_spelling`, which raise its
ParseError at its line and column: no error on a line depends on an
earlier one. A line with no error there is one the split misread (other
spacing, a label touching the next term), and the line pattern reads
the whole document, as it does when a split line holds fewer than three
texts.
"""

from __future__ import annotations

import re
from itertools import compress, count
from operator import itemgetter, methodcaller
from typing import Optional

from .errors import ParseError, TriplifyError
from .graph import Graph
from .lexer import BLANK, IRIREF, LANGTAG, STRING, normalize_line_ends, split_lines, unescape
from .terms import IRI_SPELLING, RDF_LANGSTRING, XSD_STRING, check_iri
from .terms import literal_parts, literal_text, own_literal_spellings

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
# The object slot's term pattern, which the text of every term matches.
_TERM = re.compile(_SLOTS[2][1]).fullmatch

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


def _lines(text: str, matched: bool) -> tuple[list[str], Optional[ParseError], bool]:
    """Each triple line's `S P O` text, in order; the syntax error of the
    line that ends the document early, if one does; and whether the lines
    were matched.

    Split (unless `matched`): the text is cut at ` .\\n`. A piece that
    holds a LF keeps only its last line, and the lines it drops must be
    blank or comment-only, as must the lines after the last cut, but for
    a last line with no line end that ends in ` .`. Matched (when they are
    not): each line is read by `_LINE` and its three slots are joined by
    single spaces, up to the first line `_LINE` refuses. Neither the text
    with its line ends made LF nor any list but the one returned is kept:
    the split loop's peak is the graph it builds."""
    text = normalize_line_ends(text)
    if not matched:
        lines = text.split(" .\n")
        *skipped, last = lines.pop().split("\n")  # the lines after the last cut
        if text.count("\n") != len(lines) + len(skipped):  # a piece holds a LF
            for i in [i for i, line in enumerate(lines) if "\n" in line]:
                *dropped, lines[i] = lines[i].split("\n")
                skipped += dropped
        if last[-2:] == " .":
            lines.append(last[:-2])
        else:
            skipped.append(last)
        if all(line[:1] in ("", "#") for line in skipped):
            return lines, None, False
        del lines
    lines = text.split("\n")
    n = 0  # the triple lines read, each put in place of a line read
    for lineno, line in enumerate(lines, start=1):
        m = _LINE.fullmatch(line)
        if m is None:
            del lines[n:]
            return lines, _syntax_error(line, lineno), True
        if m.group(1) is not None:
            lines[n] = " ".join(m.group(1, 2, 3))
            n += 1
    del lines[n:]
    return lines, None, True


def _check(g: Graph) -> Optional[set[str]]:
    """Check each distinct text of a graph the split loop read once, by
    kind, in batches; return None when every text spells a term in every
    slot it holds, else the texts refused (none when only a slot rule
    breaks). A text no batch settles is read by `_spelling` and, when it
    is not its term's spelling, that spelling is put at its ID; texts that
    spell one term then share the ID of the first of them."""
    terms = g._terms
    kinds = list(map(itemgetter(slice(1)), terms))  # "" for an empty text
    iris, blanks, literals = (list(compress(terms, map(k.__eq__, kinds))) for k in '<_"')
    unsettled = []  # the texts no batch settles
    if len(iris) + len(blanks) + len(literals) != len(terms):
        unsettled += [t for t in terms if t[:1] not in ("<", "_", '"')]
    for run, texts in ((_IRIS, iris), (_BLANKS, blanks)):
        if texts and run.fullmatch("\n".join(texts)) is None:
            unsettled += texts
    groups: dict[str, list[str]] = {}  # literal bodies by the tail after the last `"`
    for head, _, tail in map(methodcaller("rpartition", '"'), literals):
        if head:
            groups.setdefault(tail, []).append(head[1:])
        else:
            unsettled.append('"' + tail)  # its only `"` is its first character
    for tail, bodies in groups.items():
        if not own_literal_spellings(tail, bodies):
            unsettled += [f'"{body}"{tail}' for body in bodies]

    ids = g._ids
    refused = set()
    datatypes: dict[str, str] = {}  # a datatype's matched text -> its IRI's text
    for text in unsettled:
        try:  # no position: a refused text's error is raised from its line
            spelling = _TERM(text) and _spelling(text, 0, 0, datatypes)
        except TriplifyError:
            spelling = None
        if not spelling:
            refused.add(text)
        elif spelling != text:
            terms[ids[text]] = spelling
    triples = g._triples
    literal_ids = set(compress(count(), map('"'.__eq__, kinds)))
    no_literal_subject = literal_ids.isdisjoint(map(itemgetter(0), triples))
    iri_predicates = all(kinds[i] == "<" for i in set(map(itemgetter(1), triples)))
    if refused or not (no_literal_subject and iri_predicates):
        return refused
    if unsettled:
        ids = g._ids = {}
        new = [ids.setdefault(t, len(ids)) for t in terms]
        if len(ids) < len(terms):  # two texts spell one term
            g._terms = list(ids)
            g._triples = {(new[s], new[p], new[o]): None for s, p, o in triples}
    return None


def _raise_first_error(text: str, refused: set[str], matched: bool) -> None:
    """Raise the ParseError of the first line, read as `_lines` read it,
    that holds a refused text or breaks a slot rule: that line alone is
    read by `_LINE` and `_spelling`. Return when it holds no error there,
    as the split misread it, or when no line does."""
    for lineno, line in enumerate(split_lines(text), start=1):
        if matched:  # each line before the one sought matches
            texts = _LINE.fullmatch(line).group(1, 2, 3)
            if texts[0] is None:
                continue
        elif line[:1] in ("", "#"):
            continue
        else:
            texts = line[:-2].split(" ", 2)
        if refused.isdisjoint(texts) and texts[0][0] != '"' and texts[1][0] == "<":
            continue
        m = _LINE.fullmatch(line)
        if m is None:
            raise _syntax_error(line, lineno)
        if m.group(1) is not None:
            for k in (1, 2, 3):
                _spelling(m.group(k), lineno, m.start(k) + 1, {})
        return


def _read(text: str, matched: bool) -> Optional[Graph]:
    """The graph of a document, its lines found as `_lines` finds them, or
    None when the split misreads one."""
    lines, stop, matched = _lines(text, matched)
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
        return None  # a split line of fewer than three texts
    del lines  # the graph's peak is reached with no line list alive
    refused = _check(g)
    if refused is not None:
        _raise_first_error(text, refused, matched)
        return None  # the split misread that line
    if stop is not None:
        raise stop
    return g


def parse_ntriples(text: str) -> Graph:
    """Parse an N-Triples document into a graph (duplicate lines collapse).

    The lines are split, or, when no split reads them, matched one at a
    time by the line pattern; one loop numbers each line's three texts,
    and then each distinct text is checked once, by kind, in batches (see
    the module docstring). A text that is not its term's spelling is read
    once into that spelling, so two spellings of one term
    (`<http://e.org/\\u0041>` and `<http://e.org/A>`, `"a"` and
    `"a"^^xsd:string`) get one ID. An error is raised at the first line
    that holds one, with that line's position, as a line-by-line reader
    would raise it.
    """
    g = _read(text, False)
    return g if g is not None else _read(text, True)
