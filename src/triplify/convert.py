"""Apply a mapping to tables, producing the graph and a conversion report.

Dirty cells never abort a conversion: a term that cannot be produced
(NULL input, bad lexical form, invalid IRI) is skipped and logged in the
report, and the remaining terms of the row still convert. The output
graph is a set, so it is independent of row order, triples-map order,
and row duplication. Each triples map is one pass over its rows, so the
report logs skips in triples-map order, then row order.

Terms go into the graph as IDs: each distinct term is made and interned
once per conversion, and each triple is added as a tuple of its three
term IDs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import Callable, Optional

from .errors import (
    MappingError,
    MissingColumnError,
    TriplifyError,
    ValidationFailedError,
)
from .graph import Graph
from .r2rml import (
    MappingDocument,
    RefObjectMap,
    Template,
    TermMap,
    TriplesMap,
    validate_mapping,
)
from .tabular import Row, TableSource
from .terms import (
    _SURROGATE,
    RDF_LANGSTRING,
    RDF_TYPE,
    XSD_STRING,
    BlankNode,
    Iri,
    Literal,
    Term,
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


def expand_template(template: Template, row: Row, kind: str = "IRI") -> Optional[str]:
    """Fill a template from a row; None when any referenced cell is NULL.

    Substituted values are IRI-safe percent-encoded when kind is "IRI"
    and copied verbatim otherwise.
    """
    parts: list[str] = []
    encode = kind == "IRI"
    for seg in template.segments:
        if not seg.is_column:
            parts.append(seg.value)
            continue
        try:
            cell = row[seg.value]
        except KeyError:
            raise MissingColumnError(seg.value) from None
        if cell is None:
            return None
        parts.append(iri_safe_encode(cell) if encode else cell)
    return "".join(parts)


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


def _wrap(text: str, tm: TermMap) -> Term:
    if tm.term_kind == "IRI":
        return Iri(text)
    if tm.term_kind == "BlankNode":
        return BlankNode(_blank_label(text))
    if tm.language is not None:
        return Literal(text, RDF_LANGSTRING, tm.language)
    return Literal(text, tm.datatype if tm.datatype is not None else XSD_STRING)


def generate_term(tm: TermMap, row: Row) -> Optional[Term]:
    """Produce the term a term map yields for one row.

    Returns None when a referenced cell is NULL. Raises on data that
    cannot form the requested term (bad lexical form, invalid IRI).
    """
    if tm.constant is not None:
        return tm.constant
    if tm.column is not None:
        try:
            cell = row[tm.column]
        except KeyError:
            raise MissingColumnError(tm.column) from None
        if cell is None:
            return None
        return _wrap(cell, tm)
    if tm.template is None:
        raise MappingError("term map has no constant, column or template")
    text = expand_template(tm.template, row, tm.term_kind)
    if text is None:
        return None
    return _wrap(text, tm)


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

def _term_or_skip(
    tm: TermMap,
    row: Row,
    report: ConversionReport,
    map_id: str,
    rownum: int,
    what: str,
) -> Optional[Term]:
    """The term tm makes for row, or None with the skip and its reason logged."""
    try:
        term = generate_term(tm, row)
    except MissingColumnError:
        raise
    except TriplifyError as exc:
        # of the cells read, only one that holds a lone surrogate is to blame
        columns = tm.source_columns()
        column = next(
            (c for c in columns if _SURROGATE.search(row.get(c) or "")),
            columns[0] if columns else "",
        )
        reason = f"{what}: {exc}"
    else:
        if term is not None:
            return term
        column = next((c for c in tm.source_columns() if row.get(c) is None), "")
        reason = f"{what}: NULL input"
    report.skipped_terms.append(SkippedTerm(map_id, rownum, column, reason))
    return None


def _parent_subject(tm: TermMap, row: Row, _rownum: int) -> Optional[Term]:
    """The subject a parent's subject map tm makes for a joined row, or None:
    a parent subject that cannot be made gives no edge, and the parent's
    own pass logs it."""
    try:
        return generate_term(tm, row)
    except MissingColumnError:
        raise
    except TriplifyError:
        return None


# A term map compiled for one conversion: (row, 1-based row number) -> the
# ID of its term in the conversion's graph, or None.
Maker = Callable[[Row, int], Optional[int]]
# A conversion's term IDs: for each term map, the ID of the term made from
# each tuple of source cells.
TermTable = dict[TermMap, dict[object, int]]


def _maker(
    tm: TermMap, g: Graph, terms: TermTable, miss: Callable[[Row, int], Optional[Term]]
) -> Maker:
    """tm compiled over the term table: a row whose source cells were met
    before gets the ID of the term made then, and only a row with new
    cells calls miss. generate_term is a pure function of tm and those
    cells, so this gives the term miss would. A NULL or failed term is
    never stored, so miss logs each such row's skip, in row order, as it
    comes."""
    intern = g._intern
    if tm.constant is not None:
        constant = intern(tm.constant)
        return lambda row, rownum: constant

    def made(row: Row, rownum: int) -> Optional[int]:
        term = miss(row, rownum)
        return None if term is None else intern(term)

    columns = tm.source_columns()
    if not columns:
        return made
    cells_of = itemgetter(*columns)
    table = terms.setdefault(tm, {})

    def make(row: Row, rownum: int) -> Optional[int]:
        try:
            cells = cells_of(row)
        except KeyError:  # miss raises MissingColumnError, or meets a NULL first
            return made(row, rownum)
        i = table.get(cells)
        if i is None:
            i = made(row, rownum)
            if i is not None:
                table[cells] = i
        return i

    return make


def _table(
    tables: dict[str, TableSource], tm: TriplesMap, same_as: Optional[str] = None
) -> TableSource:
    """tm's logical table. A reference to tm with no join condition passes
    its own table as same_as: it makes tm's subjects from its own rows."""
    table = tables.get(tm.logical_table)
    if table is None:
        raise MappingError(f"logical table {tm.logical_table!r} was not provided")
    if same_as is not None and same_as != tm.logical_table:
        raise MappingError(
            f"reference to {tm.id.to_ntriples()} has no join condition "
            f"and a different logical table"
        )
    return table


def _parent_rows(
    rom: RefObjectMap, child_table: str, tables: dict[str, TableSource]
) -> dict[tuple, list[Row]]:
    """The parent's rows by the values of their join columns (NULL joins nothing)."""
    if not rom.joins:
        _table(tables, rom.parent, same_as=child_table)
        return {}
    index: dict[tuple, list[Row]] = {}
    for prow in _table(tables, rom.parent).rows:
        key = tuple(prow.get(pc) for _, pc in rom.joins)
        if None not in key:
            index.setdefault(key, []).append(prow)
    return index


def apply_triples_map(
    tm: TriplesMap,
    tables: dict[str, TableSource],
    g: Graph,
    report: ConversionReport,
) -> None:
    """Run one triples map over its logical table, inserting into g.

    The objects of a referencing object map are its parent's subject map
    applied to each joined parent row, or to the row itself when there is
    no join condition. A parent subject that cannot be made gives no edge;
    the parent's own pass logs it.
    """
    _apply_triples_map(tm, tables, g, report, {})


def _apply_triples_map(
    tm: TriplesMap,
    tables: dict[str, TableSource],
    g: Graph,
    report: ConversionReport,
    terms: TermTable,
) -> None:
    """apply_triples_map, making its terms through the conversion's term table."""
    rows = _table(tables, tm).rows
    map_id = tm.id.to_ntriples()

    def compiled(term_map: TermMap, what: str) -> Maker:
        return _maker(
            term_map,
            g,
            terms,
            lambda row, rownum: _term_or_skip(term_map, row, report, map_id, rownum, what),
        )

    # plan: each term map compiled once, each parent's rows indexed once
    subject_of = compiled(tm.subject_map, "subject")
    poms = []
    for pom in tm.predicate_object_maps:
        rom = pom.object
        if isinstance(rom, TermMap):
            poms.append((compiled(pom.predicate, "predicate"), compiled(rom, "object"), None))
            continue
        sm = rom.parent.subject_map
        parent_of = _maker(sm, g, terms, partial(_parent_subject, sm))
        ref = (parent_of, _parent_rows(rom, tm.logical_table, tables), [cc for cc, _ in rom.joins])
        poms.append((compiled(pom.predicate, "predicate"), None, ref))
    report.rows_read += len(rows)

    add = g._add_key

    def emit(key: tuple[int, int, int]) -> None:
        if not add(key):
            report.triples_deduplicated += 1

    # run
    classes = tuple(map(g._intern, tm.subject_classes))
    rdf_type = g._intern(RDF_TYPE) if classes else None
    typed: set[int] = set()  # the subjects whose class triples are already in g
    for rownum, row in enumerate(rows, start=1):
        subject = subject_of(row, rownum)
        if subject is None:
            continue
        if subject in typed:
            report.triples_deduplicated += len(classes)
        elif classes:
            typed.add(subject)
            for cls in classes:
                emit((subject, rdf_type, cls))
        for predicate_of, object_of, ref in poms:
            predicate = predicate_of(row, rownum)
            if predicate is None:
                continue
            if object_of is not None:
                obj = object_of(row, rownum)
                if obj is not None:
                    emit((subject, predicate, obj))
                continue
            parent_of, parent_rows, child_columns = ref
            if child_columns:
                prows = parent_rows.get(tuple(map(row.get, child_columns)), ())
            else:
                prows = (row,)
            for prow in prows:
                obj = parent_of(prow, 0)
                if obj is not None:
                    emit((subject, predicate, obj))


def convert(
    m: MappingDocument, tables: dict[str, TableSource]
) -> tuple[Graph, ConversionReport]:
    """Run every triples map; requires a validation pass with zero errors.

    Each distinct term (term map, source cells) is made once per call;
    the graph is handed its ID, which every triples map that makes it
    again reuses.
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
    report.triples_emitted = len(g)
    return g, report
