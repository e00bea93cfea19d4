"""Independent result oracles the engine is checked against.

The reference serializer spells each triple's line from its terms'
`to_ntriples`, by `line_of`, and sorts the lines; it shares no code
with the term-ID writer.

The reference CSV reader reads every text, quoted or not, with the one
field pattern `tabular` keeps for texts that hold a `"`. The reference
CSV writer spells a row at a time and every cell alone, never testing a
column as a whole.

The reference N-Triples reader matches every line with the full line
pattern, never splitting a line at its spaces; the columns it reports
are where the pattern's groups start. It makes every new slot text into
an `Iri`, `BlankNode` or `Literal` and interns that term's spelling, so
it shares no term-reading code with the engine's reader.

The reference conversion makes every term afresh, on every row, with
`make_term`: it keeps no table of terms already made. `make_term` fills
a template by its own code, `fill`, one character at a time, and makes
the term by its `Iri`, `BlankNode` or `Literal` constructor, with its
own blank node label rule, so it shares no term-making code with the
engine's speller, neither the template's pattern nor its percent-encoding;
`term_or_skip` logs what it cannot make. The reference column spells a
term map's column a row at a time, interning each new term's spelling
as it is made, which fixes the term IDs a conversion hands out.

The reference validator tests one focus and one constraint at a time:
one `match` per pair, and a class test is a membership probe for the
object's `rdf:type` triple.

The brute-force query evaluator enumerates every assignment of variables
to terms occurring in the graph and keeps those satisfying all patterns
by membership, then applies the documented filter semantics: dates by
XSD value order, not text, booleans by value, and a term of another
kind failing an ordering filter, as an error does in SPARQL 1.1. It
shares no code with the engine's join loop or its date arithmetic.
"""

from __future__ import annotations

import datetime
import itertools
import re
from decimal import Decimal

from triplify import BlankNode, Graph, Iri, Literal, TableSource, Triple
from triplify.convert import ConversionReport, SkippedTerm
from triplify.errors import (
    CsvError,
    MappingError,
    ParseError,
    RaggedRowError,
    TriplifyError,
)
from triplify.lexer import unescape
from triplify.ntriples import _LINE, _LITERAL, _syntax_error
from triplify.query import FilterExpr, Var
from triplify.r2rml import TermMap
from triplify.registry import Shape, ShapeConstraint, ValidationReport, Violation
from triplify.tabular import _FIELD
from triplify.terms import (
    RDF_LANGSTRING,
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_DATE,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    Term,
)

_NUMERIC = (XSD_INTEGER, XSD_DECIMAL, XSD_DOUBLE)
_LITERAL_PARTS = re.compile(_LITERAL)
_LONE_SURROGATE = re.compile("[\ud800-\udfff]")


def _records_of_every_field(text: str) -> list[list]:
    """CSV text as records, each field matched by `_FIELD`; NULL for an
    unquoted empty field."""
    if text.startswith("\ufeff"):
        text = text[1:]
    records: list[list] = []
    record: list = []
    end = 0
    for m in _FIELD.finditer(text):
        if m.start() != end:  # a quote at `end` opened a field that never closes
            raise CsvError(f"unterminated quoted field in record {len(records) + 1}")
        quoted, bare, sep, junk = m.groups()
        if junk is not None:
            raise CsvError(
                f"unexpected character {junk!r} after quoted field in record {len(records) + 1}"
            )
        if not record and m.start() == m.end():
            break  # the input ended right after a record
        end = m.end()
        record.append(bare if quoted is None else quoted.replace('""', '"'))
        if sep != ",":
            records.append(record)
            record = []
            if not sep:
                break
    return records


def load_every_field(text: str, name: str = "") -> TableSource:
    """What `load_csv` gives: the records `_FIELD` matches, the first the
    header, each other one a row of as many cells."""
    records = _records_of_every_field(text)
    if not records:
        raise CsvError("empty input: no header record")
    table = TableSource(name, tuple("" if c is None else c for c in records[0]))
    for number, record in enumerate(records[1:], start=2):
        if len(record) != len(table.columns):
            raise RaggedRowError(number, len(table.columns), len(record))
        table.rows.append(dict(zip(table.columns, record)))
    return table


def _field_of(cell) -> str:
    if cell is None:
        return ""
    if cell == "":
        return '""'
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def write_every_cell(table: TableSource) -> str:
    """What `write_csv` gives: a row at a time, each cell, header names
    too, spelt alone by its own field rule, each record ended by LF."""
    lines = [",".join(_field_of(c) for c in table.columns)]
    for row in table.rows:
        lines.append(",".join(_field_of(row[c]) for c in table.columns))
    return "\n".join(lines) + "\n"


def line_of(t: Triple) -> str:
    """t's N-Triples line, without its newline."""
    return f"{t.s.to_ntriples()} {t.p.to_ntriples()} {t.o.to_ntriples()} ."


def serialize_every_line(g: Graph) -> str:
    """What `serialize_ntriples` gives: every triple's own line, sorted,
    each ended by a newline."""
    return "".join(line + "\n" for line in sorted(map(line_of, g)))


def term_of(raw: str, lineno: int, column: int, datatypes: dict[str, Iri]) -> Term:
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
            iri = datatypes[datatype] = term_of(datatype, lineno, column + m.start(2), datatypes)
        return Literal(lexical, iri)
    except ParseError:
        raise  # a bad escape, or a bad datatype IRI, at its own column
    except TriplifyError as exc:
        raise ParseError(str(exc), lineno, column) from None


def parse_every_line(text: str) -> Graph:
    """What `parse_ntriples` gives: every line read by `_LINE`, and each
    slot's new text made into a term by `term_of` at the column its group
    starts, and interned as that term's canonical spelling."""
    if text.startswith("\ufeff"):
        text = text[1:]
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    g = Graph()
    ids: dict[str, int] = {}
    datatypes: dict = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        m = _LINE.fullmatch(line)
        if m is None:
            raise _syntax_error(line, lineno)
        if m.group(1) is None:
            continue
        key = []
        for k in (1, 2, 3):
            raw = m.group(k)
            if raw not in ids:
                term = term_of(raw, lineno, m.start(k) + 1, datatypes)
                ids[raw] = g._intern(term.to_ntriples())
            key.append(ids[raw])
        g._add_keys([tuple(key)])
    return g


def read_outcome(parse, text: str):
    """What a reader gives for text, in full: the graph, its term and
    triple order, or the ParseError's message, line and column."""
    try:
        g = parse(text)
    except ParseError as exc:
        return str(exc), exc.line, exc.column
    return g, list(g._terms), list(g._triples)


def _label(text: str) -> str:
    """A blank node label for text, one character at a time: a character
    in [A-Za-z0-9] stays, and any other becomes `_` and the uppercase hex
    of its UTF-8 bytes, so two texts never share a label."""
    if not text:
        raise TriplifyError("blank node label came out empty")
    parts = []
    for c in text:
        if c.isascii() and c.isalnum():
            parts.append(c)
        elif _LONE_SURROGATE.fullmatch(c):
            raise TriplifyError(f"cannot encode lone surrogate {c!r}")
        else:
            parts.append("_" + c.encode("utf-8").hex().upper())
    return "".join(parts)


# RFC 3987 ucschar, range by range as the RFC lists them
_UCSCHAR = [(0xA0, 0xD7FF), (0xF900, 0xFDCF), (0xFDF0, 0xFFEF)]
_UCSCHAR += [(plane * 0x10000, plane * 0x10000 + 0xFFFD) for plane in range(1, 14)]
_UCSCHAR += [(0xE1000, 0xEFFFD)]


def _iri_safe(c: str) -> str:
    """c as an IRI template's cell holds it: kept when RFC 3987 iunreserved
    (an ASCII letter or digit, `-._~`, or ucschar), else its UTF-8 bytes
    as `%XX` in uppercase hex."""
    if c.isascii() and (c.isalnum() or c in "-._~"):
        return c
    if any(lo <= ord(c) <= hi for lo, hi in _UCSCHAR):
        return c
    if _LONE_SURROGATE.fullmatch(c):
        raise TriplifyError(f"cannot encode lone surrogate {c!r}")
    return "".join(f"%{b:02X}" for b in c.encode("utf-8"))


def fill(tm: TermMap, row) -> str:
    """tm's template filled from row, none of whose cells is NULL: each
    constant segment as it is, and each column's cell, in an IRI map each
    of its characters made IRI-safe by `_iri_safe` (R2RML 7.3)."""
    parts = []
    for seg in tm.template.segments:
        if not seg.is_column:
            parts.append(seg.value)
        elif tm.term_kind == "IRI":
            parts.extend(map(_iri_safe, row[seg.value]))
        else:
            parts.append(row[seg.value])
    return "".join(parts)


def make_term(tm: TermMap, row) -> Term | None:
    """The term `convert` makes by tm from row: tm's constant; else None
    when any cell tm reads is NULL (R2RML 7.3), and otherwise the term
    its constructor makes from the column's cell or the filled template,
    raising what that constructor raises."""
    if tm.constant is not None:
        return tm.constant
    if any(row[c] is None for c in tm.source_columns()):
        return None
    if tm.column is not None:
        text = row[tm.column]
    elif tm.template is not None:
        text = fill(tm, row)
    else:
        raise MappingError("term map has no constant, column or template")
    if tm.term_kind == "IRI":
        return Iri(text)
    if tm.term_kind == "BlankNode":
        return BlankNode(_label(text))
    if tm.language is not None:
        return Literal(text, RDF_LANGSTRING, tm.language)
    return Literal(text) if tm.datatype is None else Literal(text, tm.datatype)


def term_or_skip(tm: TermMap, row, log: list, map_id: str, rownum: int, what: str):
    """The term `make_term` makes for row, or None with its skip logged:
    a NULL input at the first NULL column, or the error at the column
    that holds a lone surrogate, else at the first column read."""
    columns = tm.source_columns()
    try:
        term = make_term(tm, row)
    except TriplifyError as exc:
        blamed = [c for c in columns if _LONE_SURROGATE.search(row[c])] or columns or [""]
        log.append(SkippedTerm(map_id, rownum, blamed[0], f"{what}: {exc}"))
        return None
    if term is None:
        null = [c for c in columns if row[c] is None]
        log.append(SkippedTerm(map_id, rownum, null[0], f"{what}: NULL input"))
    return term


def convert_every_row(m, tables) -> tuple[Graph, ConversionReport]:
    """What `convert` gives for a mapping that validates: each row's terms
    made by `make_term`, through `term_or_skip` (which logs a skip), and
    a joined parent row's subject made for every edge. Terms are made
    row by row; the triples go in in the documented order: per triples
    map, its class triples in row order, then each predicate-object map's
    triples in row order."""
    g = Graph()
    report = ConversionReport()
    log = report.skipped_terms

    def emit(t):
        if not g.add(t):
            report.triples_deduplicated += 1

    for tm in m.triples_maps:
        rows = tables[tm.logical_table].rows
        map_id = tm.id.to_ntriples()
        parents = {}  # a referencing object map's parent rows by join key
        for pom in tm.predicate_object_maps:
            if not isinstance(pom.object, TermMap):
                index = parents[id(pom)] = {}
                for prow in tables[pom.object.parent.logical_table].rows:
                    key = tuple(prow[pc] for _, pc in pom.object.joins)
                    index.setdefault(key, []).append(prow)
        typed = []  # the class triples, then each predicate-object map's triples
        made = [[] for _ in tm.predicate_object_maps]
        for rownum, row in enumerate(rows, start=1):
            subject = term_or_skip(tm.subject_map, row, log, map_id, rownum, "subject")
            if subject is None:
                continue
            for cls in tm.subject_classes:
                typed.append(Triple(subject, RDF_TYPE, cls))
            for pom, out in zip(tm.predicate_object_maps, made):
                predicate = term_or_skip(pom.predicate, row, log, map_id, rownum, "predicate")
                if predicate is None:
                    continue
                if isinstance(pom.object, TermMap):
                    obj = term_or_skip(pom.object, row, log, map_id, rownum, "object")
                    if obj is not None:
                        out.append(Triple(subject, predicate, obj))
                    continue
                rom = pom.object
                key = tuple(row[c] for c, _ in rom.joins)
                if not rom.joins:
                    prows = [row]
                elif None in key:
                    prows = []
                else:
                    prows = parents[id(pom)].get(key, [])
                for prow in prows:
                    try:
                        obj = make_term(rom.parent.subject_map, prow)
                    except TriplifyError:
                        continue
                    if obj is not None:
                        out.append(Triple(subject, predicate, obj))
        for t in itertools.chain(typed, *made):
            emit(t)
    # each logical table counts once, however many triples maps read it
    for name in {tm.logical_table for tm in m.triples_maps}:
        report.rows_read += len(tables[name].rows)
    report.triples_emitted = len(g)
    return g, report


def column_every_row(tm, g: Graph, terms, map_id: str, what: str):
    """What `convert._column` compiles tm to, making the rows' terms a row
    at a time: each row whose source cells are new goes through
    `term_or_skip` in row order, and its term's spelling, if any, is
    interned at once."""
    if tm.constant is not None:
        constant = g._intern(tm.constant.to_ntriples())
        return lambda rows, rownums, log: [constant] * len(rows)
    table = terms.setdefault(tm, {})
    columns = tm.source_columns()

    def make(rows, rownums, log):
        ids = []
        for row, rownum in zip(rows, rownums):
            cells = tuple(row[c] for c in columns)
            i = table.get(cells)
            if i is None:
                term = term_or_skip(tm, row, log, map_id, rownum, what)
                if term is not None:
                    i = table[cells] = g._intern(term.to_ntriples())
            ids.append(i)
        return ids

    return make


def _conforms(g: Graph, o: Term, c: ShapeConstraint) -> bool:
    if c.kind == "literal":
        return isinstance(o, Literal) and o.datatype == c.kind_iri
    return isinstance(o, (Iri, BlankNode)) and Triple(o, RDF_TYPE, c.kind_iri) in g


def validate_every_pair(g: Graph, shapes: list[Shape]) -> ValidationReport:
    """What `validate_graph` reports, one (focus, constraint) at a time."""
    violations: list[Violation] = []
    for shape in shapes:
        focuses = sorted(
            {t.s for t in g.match(None, RDF_TYPE, shape.target_class)},
            key=lambda t: t.to_ntriples(),
        )
        for focus in focuses:
            for c in shape.constraints:
                objects = [t.o for t in g.match(focus, c.predicate, None)]
                bad = [o for o in objects if not _conforms(g, o, c)]
                flaw = (
                    "is not a literal of datatype" if c.kind == "literal" else "lacks required type"
                )
                for o in sorted(bad, key=lambda o: o.to_ntriples()):
                    message = f"object {o.to_ntriples()} {flaw} {c.kind_iri.to_ntriples()}"
                    violations.append(
                        Violation(focus, shape.target_class, c.predicate, message, offending=o)
                    )
                conforming = len(objects) - len(bad)
                if conforming < c.min_count:
                    bound = f"at least {c.min_count}"
                elif c.max_count is not None and conforming > c.max_count:
                    bound = f"at most {c.max_count}"
                else:
                    continue
                message = f"expected {bound} conforming value(s), found {conforming}"
                violations.append(
                    Violation(
                        focus, shape.target_class, c.predicate, message, observed_count=conforming
                    )
                )
    return ValidationReport(violations)


def _instantiate(term, binding):
    return binding[term.name] if isinstance(term, Var) else term


def _pattern_holds(g: Graph, pat, binding) -> bool:
    s = _instantiate(pat.s, binding)
    p = _instantiate(pat.p, binding)
    o = _instantiate(pat.o, binding)
    if isinstance(s, Literal) or not isinstance(p, Iri):
        return False
    return Triple(s, p, o) in g


def _date_instant(lexical: str) -> int:
    """Minutes from 0001-01-01Z to the start of an xsd:date (no timezone
    taken as Z). Years outside 1-9999 are moved into range by whole
    400-year Gregorian cycles of 146,097 days, so `datetime` can count."""
    m = re.fullmatch(r"(-?\d{4,})-(\d\d)-(\d\d)(Z|[+-]\d\d:\d\d)?", lexical)
    year, month, day, zone = int(Decimal(m[1])), int(m[2]), int(m[3]), m[4]
    cycles = (year - 2000) // 400
    days = datetime.date(year - 400 * cycles, month, day).toordinal() + 146097 * cycles
    offset = 0
    if zone not in (None, "Z"):
        offset = (int(zone[1:3]) * 60 + int(zone[4:6])) * (1 if zone[0] == "+" else -1)
    return days * 1440 - offset


def _number(lit: Literal):
    """The value of a numeric literal; Decimal reads integers of any length
    and decimals exactly."""
    if lit.datatype == XSD_INTEGER:
        return int(Decimal(lit.lexical))
    if lit.datatype == XSD_DECIMAL:
        return Decimal(lit.lexical)
    return float(lit.lexical)


def _numbers(left: Literal, right: Literal):
    """The two values as XPath compares them: a decimal and a double both
    as doubles, any other pair exactly."""
    pair = {left.datatype, right.datatype}
    if pair == {XSD_DECIMAL, XSD_DOUBLE}:
        return float(left.lexical), float(right.lexical)
    return _number(left), _number(right)


def _filter_holds(f: FilterExpr, binding) -> bool:
    """Whether the binding passes the filter. A term of another kind than
    a numeric, date or boolean operand is unequal to it, and ordering it
    is an error, which fails the filter."""
    value = binding[f.var.name]
    operand = f.operand
    if operand.datatype in _NUMERIC:
        if not isinstance(value, Literal) or value.datatype not in _NUMERIC:
            return f.op == "!="
        left, right = _numbers(value, operand)
    elif operand.datatype == XSD_DATE:
        if not isinstance(value, Literal) or value.datatype != XSD_DATE:
            return f.op == "!="
        left, right = _date_instant(value.lexical), _date_instant(operand.lexical)
    elif operand.datatype == XSD_BOOLEAN:
        if not isinstance(value, Literal) or value.datatype != XSD_BOOLEAN:
            return f.op == "!="
        # false is 0 and true 1 (XSD 1.1), so false orders first
        truth = {"false": 0, "0": 0, "true": 1, "1": 1}
        left, right = truth[value.lexical], truth[operand.lexical]
    else:
        same = isinstance(value, Literal) and value == operand
        return same if f.op == "=" else not same
    return {
        "=": left == right,
        "!=": left != right,
        "<": left < right,
        "<=": left <= right,
        ">": left > right,
        ">=": left >= right,
    }[f.op]


def brute_force(g: Graph, q) -> list[dict]:
    """All satisfying bindings over the graph's term universe."""
    terms = set()
    for t in g:
        terms.update((t.s, t.p, t.o))
    universe = sorted(terms, key=lambda x: x.to_ntriples())
    names = sorted(
        {v.name for pat in q.patterns for v in (pat.s, pat.p, pat.o) if isinstance(v, Var)}
    )
    rows = []
    for combo in itertools.product(universe, repeat=len(names)):
        binding = dict(zip(names, combo))
        if not all(_pattern_holds(g, pat, binding) for pat in q.patterns):
            continue
        if not all(_filter_holds(f, binding) for f in q.filters):
            continue
        rows.append(binding)
    return rows


def brute_force_solution(g: Graph, q) -> list[tuple]:
    """What the engine's Solution rows must equal, as sorted tuples."""
    rows = brute_force(g, q)
    if q.count_var is not None:
        return [(Literal(str(len(rows)), XSD_INTEGER),)]
    projected = {tuple(b[v] for v in q.variables) for b in rows}
    return sorted(projected, key=lambda tup: tuple(t.to_ntriples() for t in tup))


def solution_tuples(solution) -> list[tuple]:
    return [tuple(row[v] for v in solution.variables) for row in solution.rows]
