"""Apply a mapping to tables, producing the graph and a conversion report.

`convert` is the one way a mapping runs. It first checks the mapping
against the tables' columns by `validate_mapping`, the one rule for what
a mapping reads from its tables, and raises ValidationFailedError naming
every problem before it reads a row. After that check the plan reads a
table as `tables[name]` and checks no column.

Dirty cells never abort a conversion: a term that cannot be produced
(NULL input, bad lexical form, invalid IRI) is skipped and logged in the
report, and the remaining terms of the row still convert. The output
graph is a set, so it is independent of row order, triples-map order,
and row duplication.

A triples map runs a column at a time, in the style of a column store:
each term map is made for all of the map's rows at once, as a list of
term IDs, and each predicate-object map inserts its triples in one bulk
insert. The report still logs skips in triples-map order, then row
order, then term-map order within a row, and exactly the terms a
row-by-row pass would try are tried: rows whose subject was skipped
make no predicate, and rows whose predicate was skipped make no object.

The graph's insertion order, which iteration and `match` follow, is per
triples map: its class triples, in first-seen subject order, then each
predicate-object map's triples in row order. Term IDs are handed out
column by column. Each distinct term is spelt and interned once per
conversion, with no term object made, and a column is spelt, not a row:
the distinct source cells of the rows the conversion's term table lacks
go, in first-seen order, through a speller compiled once per term map,
and their spellings into the graph by one bulk intern. That speller is
the one rule from source cells to a term. A value it cannot spell gives
back its error, and each row whose cells are NULL or failed logs its
skip from that result, so no row is spelt twice. A NULL in any cell a
term map reads makes no term, whatever the other cells hold (R2RML, W3C
2012, 7.3).

A template fills by its `str.format` pattern, `Template._pattern`, the
one expansion rule. R2RML (W3C 2012, 7.3) percent-encodes a template's
cells in an IRI map, and what that leaves (RFC 3987 iunreserved, ucschar
and `%XX`) holds no character `check_iri` refuses. So an IRI template
whose first segment is a constant that starts with a scheme, and whose
constants hold no refused character, is settled: its terms are not
checked, and a batch of cells none of which needs encoding is spelt by
the pattern alone. Every other term's text is checked as its
constructor checks it, once per distinct cell. Each triple is added as
a tuple of its three term IDs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, compress, repeat
from operator import attrgetter, is_, is_not, itemgetter, not_
from typing import Callable, Iterator, Optional, Sequence

from .errors import (
    CsvError,
    MappingError,
    TriplifyError,
    ValidationFailedError,
)
from .graph import Graph, Key
from .r2rml import (
    MappingDocument,
    Template,
    TermMap,
    TriplesMap,
    validate_mapping,
)
from .tabular import Row, TableSource
from .terms import (
    _SURROGATE,
    _IRI_ILLEGAL,
    _IRI_SCHEME,
    RDF_LANGSTRING,
    RDF_TYPE,
    XSD_STRING,
    check_iri,
    literal_text,
)

# RFC 3987 ucschar: private-use planes excluded, surrogates excluded.
_UCSCHAR_RANGES = (
    (0xA0, 0xD7FF),
    (0xF900, 0xFDCF),
    (0xFDF0, 0xFFEF),
    *((base, base + 0xFFFD) for base in range(0x10000, 0xE0000, 0x10000)),
    (0xE1000, 0xEFFFD),
)
# runs of characters outside RFC 3987 iunreserved
_NOT_IUNRESERVED = re.compile(
    "[^A-Za-z0-9._~\\-"
    + "".join(f"\\U{lo:08x}-\\U{hi:08x}" for lo, hi in _UCSCHAR_RANGES)
    + "]+"
)


def _utf8(text: str) -> bytes:
    """text as UTF-8; a lone surrogate, which has no encoding, is a TriplifyError."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise TriplifyError(f"cannot encode lone surrogate {exc.object[exc.start]!r}") from None


def _percent_encode(m: re.Match) -> str:
    return "".join("%%%02X" % b for b in _utf8(m.group()))


def iri_safe_encode(text: str) -> str:
    """Percent-encode every character outside iunreserved (uppercase hex)."""
    if text.isascii() and text.isalnum():
        return text
    return _NOT_IUNRESERVED.sub(_percent_encode, text)


# the characters a blank node label escapes
_NOT_LABEL_SAFE = re.compile(r"[^A-Za-z0-9]")


def _label_escape(m: re.Match) -> str:
    return "_" + _utf8(m.group()).hex().upper()


def _blank_label(text: str) -> str:
    """A label for text, injective: each character outside [A-Za-z0-9]
    becomes `_` and the uppercase hex of its UTF-8 bytes, whose lead byte
    fixes how many follow (`a-b` -> `a_2Db`, `a_b` -> `a_5Fb`)."""
    if not text:
        raise TriplifyError("blank node label came out empty")
    return _NOT_LABEL_SAFE.sub(_label_escape, text)


def _spell(text: str, tm: TermMap) -> str:
    """The canonical N-Triples spelling of the term tm makes from text,
    checked as that term's constructor checks it, without making the
    term."""
    if tm.term_kind == "IRI":
        return f"<{check_iri(text)}>"
    if tm.term_kind == "BlankNode":
        # a label of [A-Za-z0-9_] only is always a BLANK_NODE_LABEL
        return "_:" + _blank_label(text)
    if tm.language is not None:
        return literal_text(text, RDF_LANGSTRING.value, tm.language)
    return literal_text(text, (tm.datatype or XSD_STRING).value)


def _settled(template: Template) -> bool:
    """Whether every IRI-safe expansion of template passes check_iri: its
    first segment is constant and starts with a scheme, and no constant
    segment holds a character an IRI refuses. What iri_safe_encode puts
    in its place (RFC 3987 iunreserved, ucschar and `%XX`) holds none."""
    segments = template.segments
    return (
        bool(segments)
        and not segments[0].is_column
        and _IRI_SCHEME.match(segments[0].value) is not None
        and not any(_IRI_ILLEGAL.search(seg.value) for seg in segments if not seg.is_column)
    )


def _each(spell: Callable[[object], str], values: list) -> list[str | TriplifyError]:
    """spell(v) for each of values, or the TriplifyError it raises."""
    out: list[str | TriplifyError] = []
    for v in values:
        try:
            out.append(spell(v))
        except TriplifyError as exc:
            # its traceback would hold this frame, and so `out`, in a cycle
            out.append(exc.with_traceback(None))
    return out


def _star(f: Callable[..., str], args: tuple) -> str:
    return f(*args)


def _speller(tm: TermMap) -> Callable[[list], list[str | TriplifyError]]:
    """tm, which has no constant, compiled to spell a batch of source
    values, none NULL: each a cell, or a tuple of cells when tm reads other
    than one column. For each value, the canonical spelling of the term
    tm makes from it, or the TriplifyError that making it raises. This is
    the one rule from source cells to a term.

    A settled template (`_settled`) of an IRI map spells without
    check_iri, and a batch in which no cell needs percent-encoding spells
    by the template's pattern alone. Every other map checks each term as
    `_spell` does.
    """
    template = tm.template
    if template is None:
        if tm.column is None:
            error = MappingError("term map has no constant, column or template")
            return lambda values: [error] * len(values)
        return partial(_each, lambda cell: _spell(cell, tm))
    pattern = template._pattern
    if len(template.columns()) == 1:  # a value is the cell: no 1-tuple per cell
        fill, spelt = pattern.format, f"<{pattern}>".format
        encode, cells = iri_safe_encode, iter
    else:
        fill, spelt = partial(_star, pattern.format), partial(_star, f"<{pattern}>".format)
        encode, cells = partial(map, iri_safe_encode), chain.from_iterable
    if tm.term_kind != "IRI":
        return partial(_each, lambda v: _spell(fill(v), tm))
    if not _settled(template):
        return partial(_each, lambda v: _spell(fill(encode(v)), tm))

    def spell(values: list) -> list[str | TriplifyError]:
        if _NOT_IUNRESERVED.search("".join(cells(values))) is None:
            return list(map(spelt, values))
        return _each(lambda v: spelt(encode(v)), values)

    return spell


# --- reporting ----------------------------------------------------------------

@dataclass(slots=True)
class SkippedTerm:
    map_id: str
    row: int  # 1-based data row within the map's logical table
    column: str
    reason: str


@dataclass(slots=True)
class ConversionReport:
    rows_read: int = 0
    triples_emitted: int = 0
    triples_deduplicated: int = 0
    skipped_terms: list[SkippedTerm] = field(default_factory=list)

    def summary(self) -> str:
        lines = [
            f"rows read:            {self.rows_read}",
            f"triples in graph:     {self.triples_emitted}",
            f"duplicates collapsed: {self.triples_deduplicated}",
            f"terms skipped:        {len(self.skipped_terms)}",
        ]
        return "\n".join(lines)

    def skipped_log(self) -> str:
        """One tab-separated line per skipped term: map, row, column, reason."""
        return "".join(
            f"{t.map_id}\t{t.row}\t{t.column}\t{t.reason}\n" for t in self.skipped_terms
        )


# --- execution ------------------------------------------------------------------

def _skip(
    tm: TermMap, row: Row, map_id: str, rownum: int, what: str, error: Optional[TriplifyError]
) -> SkippedTerm:
    """The log entry of the term tm did not make for row: with no error,
    a NULL input, at the first NULL column; else the error, at the column
    that holds a lone surrogate, the one cell read that is to blame, or
    else at the first column."""
    columns = tm.source_columns()
    if error is None:
        column = next((c for c in columns if row[c] is None), "")
        return SkippedTerm(map_id, rownum, column, f"{what}: NULL input")
    column = next(
        (c for c in columns if _SURROGATE.search(row[c])), columns[0] if columns else ""
    )
    return SkippedTerm(map_id, rownum, column, f"{what}: {error}")


# A term map compiled for one conversion: (rows, their 1-based row numbers,
# the log for their skips) -> the ID of each row's term in the conversion's
# graph, None where it was skipped.
Column = Callable[[list[Row], Sequence[int], list[SkippedTerm]], list[Optional[int]]]
# A conversion's term IDs: for each term map, the ID of the term made from
# each tuple of source cells.
TermTable = dict[TermMap, dict[object, int]]


def _cells(get: Callable[[Row], tuple], rows: list[Row], rownums: Sequence[int]) -> list:
    """get(row) for each row. A row that lacks a column get reads, which
    `TableSource` refuses but a row added to its `rows` later may, is a
    CsvError naming its row number, as `TableSource` names it."""
    try:
        return list(map(get, rows))
    except KeyError:
        for row, rownum in zip(rows, rownums):
            try:
                get(row)
            except KeyError:
                raise CsvError(f"row {rownum} does not match the table columns") from None
        raise


def _nones(ids: list[Optional[int]]) -> Iterator[int]:
    """The places of the Nones in ids."""
    return compress(range(len(ids)), map(is_, ids, repeat(None)))


def _column(tm: TermMap, g: Graph, terms: TermTable, map_id: str, what: str) -> Column:
    """tm compiled over the term table: a row whose source cells were met
    before gets the ID of the term spelt then, which `_speller`, a pure
    function of tm and those cells, would spell again. Every column tm
    reads is one its table has: `convert` has checked that by
    `validate_mapping`, and `_cells` names a row added later that lacks it.

    The other rows' distinct source cells with no NULL among them are
    spelt in one batch (`_speller`), in first-seen order, and the
    spellings interned by one bulk `Graph._intern_all`, which hands out
    the IDs that interning them row by row would. The errors of the
    cells that failed are kept for this batch only: a NULL or failed term
    is never stored, so each row whose cells were NULL or failed logs its
    skip (`_skip`), in row order, from its cells' error or its NULL.
    """
    if tm.constant is not None:
        constant = g._intern(tm.constant.to_ntriples())
        return lambda rows, rownums, log: [constant] * len(rows)
    columns = tm.source_columns()
    cells_of = itemgetter(*columns) if columns else lambda row: ()
    single = len(columns) == 1
    spell = _speller(tm)
    table = terms.setdefault(tm, {})

    def make(
        rows: list[Row], rownums: Sequence[int], log: list[SkippedTerm]
    ) -> list[Optional[int]]:
        cells = _cells(cells_of, rows, rownums)
        ids = list(map(table.get, cells))
        if None not in ids:
            return ids
        new = dict.fromkeys(map(cells.__getitem__, _nones(ids)))
        if single:
            new.pop(None, None)
            values = list(new)
        else:
            values = [v for v in new if None not in v]
        spellings = spell(values)
        failed = list(map(isinstance, spellings, repeat(TriplifyError)))
        errors = dict(compress(zip(values, spellings), failed))
        made = list(map(not_, failed))
        table.update(zip(compress(values, made), g._intern_all(list(compress(spellings, made)))))
        ids = list(map(table.get, cells))
        for k in _nones(ids):
            log.append(_skip(tm, rows[k], map_id, rownums[k], what, errors.get(cells[k])))
        return ids

    return make


def _made(ids: list[Optional[int]], *aligned: list) -> list[list]:
    """ids without its Nones, and each list aligned with it without the
    entries at those places."""
    if None not in ids:
        return [ids, *aligned]
    made = list(map(is_not, ids, repeat(None)))
    return [list(compress(column, made)) for column in (ids, *aligned)]


def _join_values(columns: list[str], rows: list[Row], rownums: Sequence[int]) -> list[tuple]:
    """Each row's values in columns, as a tuple; None where a cell is NULL."""
    get = itemgetter(*columns)
    values = _cells(get, rows, rownums)
    return values if len(columns) > 1 else [(v,) for v in values]


def _join_table(
    joins: tuple[tuple[str, str], ...], parent_rows: list[Row], parent_of: Column
) -> dict[tuple, list[int]]:
    """The ID of each parent row's subject, by the row's join values: NULL
    joins nothing, and a subject that cannot be made gives no edge."""
    values = _join_values([pc for _, pc in joins], parent_rows, range(1, len(parent_rows) + 1))
    joinable = [None not in v for v in values]
    rownums = list(compress(range(1, len(parent_rows) + 1), joinable))
    subjects = parent_of(list(compress(parent_rows, joinable)), rownums, [])
    ids: dict[tuple, list[int]] = {}
    for key, i in zip(compress(values, joinable), subjects):
        if i is not None:
            ids.setdefault(key, []).append(i)
    return ids


def _apply_triples_map(
    tm: TriplesMap,
    tables: dict[str, TableSource],
    g: Graph,
    report: ConversionReport,
    terms: TermTable,
) -> None:
    """Run one triples map of a validated mapping over its logical table,
    inserting into g and making its terms through the conversion's term
    table, one column at a time.

    First the plan: each term map is compiled once, and each join's
    parent subjects are made once, into a table from each parent row's
    join values to its subject's ID; a reference with no join condition
    makes the parent's subject from the row itself. A parent subject that
    cannot be made gives no edge, and the parent's own map logs it.
    Then the subject column, and rows whose subject was skipped are
    dropped. Then each predicate-object map makes its predicate column,
    drops the rows whose predicate was skipped, makes its object column
    and inserts its triples in row order by one bulk insert. The columns
    log their skips one after another; a stable sort on row number puts
    them in row order, and within a row in term-map order.
    """
    table = tables[tm.logical_table]
    map_id = tm.id.to_ntriples()

    def unlogged(column: Column) -> Column:
        """column with its skips dropped: the parent's own map logs them."""
        return lambda rows, rownums, log: column(rows, rownums, [])

    # plan: each term map compiled once, each join's parent subjects made once
    subject_of = _column(tm.subject_map, g, terms, map_id, "subject")
    poms = []
    for pom in tm.predicate_object_maps:
        predicate_of = _column(pom.predicate, g, terms, map_id, "predicate")
        rom = pom.object
        if isinstance(rom, TermMap):
            poms.append((predicate_of, _column(rom, g, terms, map_id, "object"), None))
            continue
        parent_of = _column(rom.parent.subject_map, g, terms, map_id, "subject")
        if not rom.joins:
            poms.append((predicate_of, unlogged(parent_of), None))
            continue
        parent_rows = tables[rom.parent.logical_table].rows
        join = ([cc for cc, _ in rom.joins], _join_table(rom.joins, parent_rows, parent_of))
        poms.append((predicate_of, None, join))
    classes = tuple(g._intern(c.to_ntriples()) for c in tm.subject_classes)
    rdf_type = g._intern(RDF_TYPE.to_ntriples()) if classes else None

    def insert(keys: list[Key]) -> None:
        report.triples_deduplicated += len(keys) - g._add_keys(keys)

    log: list[SkippedTerm] = []
    rows, rownums = table.rows, range(1, len(table.rows) + 1)
    subjects, rows, rownums = _made(subject_of(rows, rownums, log), rows, rownums)
    # class triples: each distinct subject's, in first-seen order
    typed = [(s, rdf_type, c) for s in dict.fromkeys(subjects) for c in classes]
    report.triples_deduplicated += len(subjects) * len(classes) - len(typed)
    insert(typed)
    for predicate_of, object_of, join in poms:
        predicates, prows, pnums, psubjects = _made(
            predicate_of(rows, rownums, log), rows, rownums, subjects
        )
        if join is None:
            objects, psubjects, predicates = _made(
                object_of(prows, pnums, log), psubjects, predicates
            )
            keys = list(zip(psubjects, predicates, objects))
        else:
            child_columns, ids = join
            parents = map(ids.get, _join_values(child_columns, prows, pnums), repeat(()))
            keys = [(s, p, o) for s, p, os in zip(psubjects, predicates, parents) for o in os]
        insert(keys)
    log.sort(key=attrgetter("row"))  # stable: term-map order within a row
    report.skipped_terms += log


def convert(
    m: MappingDocument, tables: dict[str, TableSource]
) -> tuple[Graph, ConversionReport]:
    """Run every triples map of m over tables, the one way a mapping runs.

    m is first checked against the tables' columns by `validate_mapping`;
    if it reports any error, ValidationFailedError names every one before
    a row is read.

    Each distinct term (term map, source cells) is spelt once per call;
    the graph is handed its ID, which every triples map that makes it
    again reuses. The report's rows_read counts each logical table once,
    however many triples maps read it.
    """
    available = {name: set(t.columns) for name, t in tables.items()}
    diagnostics = validate_mapping(m, available)
    errors = [d for d in diagnostics if d.severity == "error"]
    if errors:
        raise ValidationFailedError(errors)
    g = Graph()
    report = ConversionReport()
    terms: TermTable = {}
    for tm in m.triples_maps:
        _apply_triples_map(tm, tables, g, report, terms)
    logical_tables = dict.fromkeys(tm.logical_table for tm in m.triples_maps)
    report.rows_read = sum(len(tables[name].rows) for name in logical_tables)
    report.triples_emitted = len(g)
    return g, report
