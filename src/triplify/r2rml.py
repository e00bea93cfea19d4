"""R2RML mapping documents: parsing, the executable model, validation.

A mapping document is itself an RDF graph (usually parsed from Turtle).
parse_mapping() turns it into TriplesMap objects ready for execution:
every node carrying rr:logicalTable / rr:subjectMap / rr:subject becomes
one TriplesMap. Predicate-object blocks with several predicates or objects
are flattened into one (predicate, object) pair per combination.

One compiled pattern splits an rr:template into column references,
escaped braces, stray braces (an error) and literal text.

Deliberate restrictions: logical tables are base table names only
(rr:sqlQuery is rejected), and named graphs (rr:graphMap) are rejected;
rr:inverseExpression and rr:sqlVersion are ignored with a warning, as is
any unrecognized rr: property.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Optional, Union

from .errors import (
    ConflictingSourceError,
    DanglingParentMapError,
    EmptyColumnNameError,
    LiteralSubjectError,
    MappingError,
    MissingLogicalTableError,
    MissingSubjectMapError,
    NoColumnReferenceError,
    UnbalancedBracesError,
    UnsupportedFeatureError,
)
from .graph import Graph
from .terms import BlankNode, Iri, Literal, PrefixMap, Term

RR_NS = "http://www.w3.org/ns/r2rml#"

# every rr: property this module names; any other one is warned about
_KNOWN: set[Iri] = set()


def _rr(local: str) -> Iri:
    """The rr: property `local`, recorded as known."""
    prop = Iri(RR_NS + local)
    _KNOWN.add(prop)
    return prop


RR_LOGICAL_TABLE = _rr("logicalTable")
RR_TABLE_NAME = _rr("tableName")
RR_SQL_QUERY = _rr("sqlQuery")
RR_SUBJECT_MAP = _rr("subjectMap")
RR_SUBJECT = _rr("subject")
RR_CLASS = _rr("class")
RR_POM = _rr("predicateObjectMap")
RR_PREDICATE = _rr("predicate")
RR_PREDICATE_MAP = _rr("predicateMap")
RR_OBJECT = _rr("object")
RR_OBJECT_MAP = _rr("objectMap")
RR_CONSTANT = _rr("constant")
RR_COLUMN = _rr("column")
RR_TEMPLATE = _rr("template")
RR_TERM_TYPE = _rr("termType")
RR_DATATYPE = _rr("datatype")
RR_LANGUAGE = _rr("language")
RR_PARENT_TRIPLES_MAP = _rr("parentTriplesMap")
RR_JOIN_CONDITION = _rr("joinCondition")
RR_CHILD = _rr("child")
RR_PARENT = _rr("parent")
RR_GRAPH_MAP = _rr("graphMap")
RR_GRAPH = _rr("graph")

# the properties that make their subject a triples map
_MAP_PROPERTIES = (RR_LOGICAL_TABLE, RR_SUBJECT_MAP, RR_SUBJECT)
# objects of rr:termType, not properties
_TERM_TYPES = {Iri(RR_NS + kind): kind for kind in ("IRI", "BlankNode", "Literal")}

# _KNOWN holds these too; _read_nodes tests them first
_REJECTED = {
    RR_SQL_QUERY: "rr:sqlQuery is not supported; name a base table with rr:tableName",
    RR_GRAPH_MAP: "named graphs (rr:graphMap) are not supported",
    RR_GRAPH: "named graphs (rr:graph) are not supported",
}
_IGNORED = {
    _rr("inverseExpression"): "rr:inverseExpression has no effect without a SQL backend",
    _rr("sqlVersion"): "rr:sqlVersion has no effect without a SQL backend",
}


# --- templates --------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class TemplateSegment:
    value: str
    is_column: bool


@dataclass(frozen=True, slots=True)
class Template:
    """An rr:template split into literal text and column references.

    `_pattern` is the template compiled once into a `str.format` pattern:
    the k-th column reference is `{k}` and each brace of literal text is
    doubled, so `_pattern.format(*values)` fills the columns in order with
    values. It is the one expansion rule `convert` follows.
    """

    segments: tuple[TemplateSegment, ...]
    _pattern: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        parts, k = [], 0
        for seg in self.segments:
            if seg.is_column:
                parts.append(f"{{{k}}}")
                k += 1
            else:
                parts.append(seg.value.replace("{", "{{").replace("}", "}}"))
        object.__setattr__(self, "_pattern", "".join(parts))

    def columns(self) -> list[str]:
        return [s.value for s in self.segments if s.is_column]


# A column reference, an escaped brace, a stray brace, or literal text.
_TEMPLATE_PART = re.compile(r"\{([^{}]*)\}|\\([{}])|([{}])|([^\\{}]+|\\)")


def parse_template(text: str) -> Template:
    """Parse an rr:template string.

    `{NAME}` is a column reference; `\\{` and `\\}` are literal braces.
    A template must reference at least one column.
    """
    segments: list[TemplateSegment] = []
    literal: list[str] = []
    for m in _TEMPLATE_PART.finditer(text):
        name, escaped, stray, chars = m.groups()
        offset = m.start() + 1
        if stray == "}":
            raise UnbalancedBracesError(f"stray '}}' at offset {offset}: {text!r}")
        if stray == "{":
            problem = "nested" if "}" in text[offset:] else "unclosed"
            raise UnbalancedBracesError(f"{problem} '{{' at offset {offset}: {text!r}")
        if name is None:
            literal.append(escaped or chars)
            continue
        if not name:
            raise EmptyColumnNameError(f"empty column reference at offset {offset}: {text!r}")
        if literal:
            segments.append(TemplateSegment("".join(literal), False))
            literal = []
        segments.append(TemplateSegment(name, True))
    if literal:
        segments.append(TemplateSegment("".join(literal), False))
    template = Template(tuple(segments))
    if not template.columns():
        raise NoColumnReferenceError(f"template references no column: {text!r}")
    return template


# --- executable mapping model -----------------------------------------------

@dataclass(frozen=True, slots=True)
class TermMap:
    """One rule producing a term from a row: constant, column, or template.

    A value: equal term maps make equal terms from equal cells, so a
    conversion keeps one table of made terms per distinct term map.
    """

    term_kind: str  # "IRI" | "BlankNode" | "Literal"
    constant: Optional[Term] = None
    column: Optional[str] = None
    template: Optional[Template] = None
    datatype: Optional[Iri] = None
    language: Optional[str] = None

    def source_columns(self) -> list[str]:
        if self.column is not None:
            return [self.column]
        if self.template is not None:
            return self.template.columns()
        return []


@dataclass(slots=True)
class RefObjectMap:
    """A link to the subjects of another triples map, matched by joins."""

    parent: TriplesMap
    joins: tuple[tuple[str, str], ...]  # (child column, parent column)


@dataclass(slots=True)
class PredicateObjectMap:
    predicate: TermMap
    object: Union[TermMap, RefObjectMap]


@dataclass(slots=True)
class TriplesMap:
    id: Term
    logical_table: str
    subject_map: TermMap
    subject_classes: list[Iri] = field(default_factory=list)
    predicate_object_maps: list[PredicateObjectMap] = field(default_factory=list)


@dataclass(slots=True)
class MappingDocument:
    triples_maps: list[TriplesMap]
    prefixes: PrefixMap
    source_name: str = ""
    warnings: list[str] = field(default_factory=list)


# --- parsing ----------------------------------------------------------------

# Each node of a mapping graph with its objects by property, in canonical order.
_Nodes = dict[Term, dict[Iri, list[Term]]]


def _values(doc: _Nodes, node: Term, prop: Iri) -> list[Term]:
    return doc.get(node, {}).get(prop, [])


def _single(doc: _Nodes, node: Term, prop: Iri, owner: str) -> Optional[Term]:
    found = _values(doc, node, prop)
    if len(found) > 1:
        raise MappingError(f"{owner}: more than one {prop.value.rsplit('#', 1)[1]!r} value")
    return found[0] if found else None


def _read_nodes(doc: Graph, warnings: list[str]) -> _Nodes:
    """doc's objects by node and property, read in one pass in canonical
    order, so maps, POMs and their warnings come out reproducibly.

    The order is that of the triples' N-Triples lines, had from their
    keys sorted by their three spellings: where one spelling is a proper
    prefix of another (`_:a`, `_:ab`; `"a"`, `"a"@en`), the character
    that follows it is above the space that ends it in a line, as
    canonical output holds no raw control character. Terms are made
    through `Graph._made`, each once, into a table of the call's own.
    """
    spelt = doc._terms
    keys = sorted(doc._triples, key=lambda k: (spelt[k[0]], spelt[k[1]], spelt[k[2]]))
    made = doc._made(chain.from_iterable(keys), {})
    nodes: _Nodes = {}
    seen_unknown = set()
    for s, p, o in keys:
        p = made[p]
        nodes.setdefault(made[s], {}).setdefault(p, []).append(made[o])
        if p in _KNOWN:
            if p in _REJECTED:
                raise UnsupportedFeatureError(_REJECTED[p])
            if p in _IGNORED:
                warnings.append(_IGNORED[p])
        elif p not in seen_unknown and p.value.startswith(RR_NS):
            seen_unknown.add(p)
            warnings.append(f"unknown R2RML property ignored: <{p.value}>")
    return nodes


def _constant_map(term: Term) -> TermMap:
    """The term map that yields `term` for every row."""
    if isinstance(term, Iri):
        kind = "IRI"
    elif isinstance(term, BlankNode):
        kind = "BlankNode"
    else:
        kind = "Literal"
    return TermMap(term_kind=kind, constant=term)


def _parse_term_map(
    doc: _Nodes, node: Term, position: str, owner: str
) -> TermMap:
    constant = _single(doc, node, RR_CONSTANT, owner)
    column_term = _single(doc, node, RR_COLUMN, owner)
    template_term = _single(doc, node, RR_TEMPLATE, owner)
    sources = [x for x in (constant, column_term, template_term) if x is not None]
    if len(sources) > 1:
        raise ConflictingSourceError(
            f"{owner}: term map declares more than one of constant/column/template"
        )
    if not sources:
        raise MappingError(f"{owner}: term map needs rr:constant, rr:column or rr:template")

    column = None
    template = None
    if column_term is not None:
        if not isinstance(column_term, Literal):
            raise MappingError(f"{owner}: rr:column must be a literal column name")
        column = column_term.lexical
    if template_term is not None:
        if not isinstance(template_term, Literal):
            raise MappingError(f"{owner}: rr:template must be a literal")
        template = parse_template(template_term.lexical)

    datatype = _single(doc, node, RR_DATATYPE, owner)
    if datatype is not None and not isinstance(datatype, Iri):
        raise MappingError(f"{owner}: rr:datatype must be an IRI")
    language_term = _single(doc, node, RR_LANGUAGE, owner)
    language = None
    if language_term is not None:
        if not isinstance(language_term, Literal):
            raise MappingError(f"{owner}: rr:language must be a literal")
        language = language_term.lexical
    if datatype is not None and language is not None:
        raise MappingError(f"{owner}: rr:datatype and rr:language are mutually exclusive")

    term_type = _single(doc, node, RR_TERM_TYPE, owner)
    if constant is not None:
        tm = _constant_map(constant)
    else:
        if term_type is not None:
            try:
                kind = _TERM_TYPES[term_type]
            except KeyError:
                raise MappingError(
                    f"{owner}: unknown rr:termType {term_type.to_ntriples()}"
                ) from None
        elif position in ("subject", "predicate"):
            kind = "IRI"
        elif column is not None or datatype is not None or language is not None:
            kind = "Literal"
        else:
            kind = "IRI"
        tm = TermMap(term_kind=kind, column=column, template=template)

    if datatype is not None or language is not None:
        if tm.term_kind != "Literal":
            raise MappingError(f"{owner}: rr:datatype/rr:language require a literal term map")
        tm = replace(tm, datatype=datatype, language=language)
    return tm


def _parse_logical_table(doc: _Nodes, node: Term, owner: str) -> str:
    lt = _single(doc, node, RR_LOGICAL_TABLE, owner)
    if lt is None:
        raise MissingLogicalTableError(f"{owner}: no rr:logicalTable")
    name = _single(doc, lt, RR_TABLE_NAME, owner)
    if name is None:
        raise MissingLogicalTableError(f"{owner}: logical table has no rr:tableName")
    if not isinstance(name, Literal):
        raise MappingError(f"{owner}: rr:tableName must be a literal")
    return name.lexical


def _parse_subject(doc: _Nodes, node: Term, owner: str) -> tuple[TermMap, list[Iri]]:
    sm_nodes = _values(doc, node, RR_SUBJECT_MAP)
    const_subjects = _values(doc, node, RR_SUBJECT)
    if len(sm_nodes) + len(const_subjects) == 0:
        raise MissingSubjectMapError(f"{owner}: no rr:subjectMap")
    if len(sm_nodes) + len(const_subjects) > 1:
        raise MappingError(f"{owner}: more than one subject map")
    classes: list[Iri] = []
    if const_subjects:
        subject = const_subjects[0]
        if isinstance(subject, Literal):
            raise LiteralSubjectError(f"{owner}: subjects cannot be literals")
        sm = _constant_map(subject)
    else:
        sm = _parse_term_map(doc, sm_nodes[0], "subject", owner)
        if sm.term_kind == "Literal":
            raise LiteralSubjectError(f"{owner}: subjects cannot be literals")
        for c in _values(doc, sm_nodes[0], RR_CLASS):
            if not isinstance(c, Iri):
                raise MappingError(f"{owner}: rr:class must be an IRI")
            classes.append(c)
    return sm, classes


def _parse_poms(
    doc: _Nodes, node: Term, owner: str, maps: dict[Term, TriplesMap]
) -> list[PredicateObjectMap]:
    out: list[PredicateObjectMap] = []
    for pom_node in _values(doc, node, RR_POM):
        predicates: list[TermMap] = []
        for p in _values(doc, pom_node, RR_PREDICATE):
            if not isinstance(p, Iri):
                raise MappingError(f"{owner}: rr:predicate must be an IRI")
            predicates.append(_constant_map(p))
        for pm_node in _values(doc, pom_node, RR_PREDICATE_MAP):
            pm = _parse_term_map(doc, pm_node, "predicate", owner)
            if pm.term_kind != "IRI":
                raise MappingError(f"{owner}: predicate maps must produce IRIs")
            predicates.append(pm)
        if not predicates:
            raise MappingError(f"{owner}: predicate-object map has no predicate")

        objects: list[Union[TermMap, RefObjectMap]] = [
            _constant_map(o) for o in _values(doc, pom_node, RR_OBJECT)
        ]
        for om_node in _values(doc, pom_node, RR_OBJECT_MAP):
            parent = _single(doc, om_node, RR_PARENT_TRIPLES_MAP, owner)
            if parent is None:
                objects.append(_parse_term_map(doc, om_node, "object", owner))
                continue
            if parent not in maps:
                raise DanglingParentMapError(
                    f"{owner}: rr:parentTriplesMap {parent.to_ntriples()} is not a triples map"
                )
            joins = []
            for jc in _values(doc, om_node, RR_JOIN_CONDITION):
                child = _single(doc, jc, RR_CHILD, owner)
                par = _single(doc, jc, RR_PARENT, owner)
                if not isinstance(child, Literal) or not isinstance(par, Literal):
                    raise MappingError(
                        f"{owner}: join conditions need literal rr:child and rr:parent"
                    )
                joins.append((child.lexical, par.lexical))
            objects.append(RefObjectMap(maps[parent], tuple(sorted(joins))))
        if not objects:
            raise MappingError(f"{owner}: predicate-object map has no object")
        for p in predicates:
            for o in objects:
                out.append(PredicateObjectMap(predicate=p, object=o))
    return out


def parse_mapping(doc: Graph, prefixes: PrefixMap, source_name: str = "") -> MappingDocument:
    """Interpret an RDF graph as an R2RML mapping document."""
    warnings: list[str] = []
    nodes = _read_nodes(doc, warnings)
    map_nodes = [n for n, props in nodes.items() if not props.keys().isdisjoint(_MAP_PROPERTIES)]
    if not map_nodes:
        raise MissingSubjectMapError("document contains no triples maps")

    # every map before any reference, so a reference holds its parent at once
    maps: dict[Term, TriplesMap] = {}
    for node in sorted(map_nodes, key=lambda n: n.to_ntriples()):
        owner = f"triples map {node.to_ntriples()}"
        table = _parse_logical_table(nodes, node, owner)
        subject_map, classes = _parse_subject(nodes, node, owner)
        maps[node] = TriplesMap(
            id=node,
            logical_table=table,
            subject_map=subject_map,
            subject_classes=classes,
        )
    for node, tm in maps.items():
        owner = f"triples map {node.to_ntriples()}"
        tm.predicate_object_maps = _parse_poms(nodes, node, owner, maps)

    return MappingDocument(
        triples_maps=list(maps.values()),
        prefixes=prefixes,
        source_name=source_name,
        warnings=warnings,
    )


# --- validation ---------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    map_id: str
    message: str

    def __str__(self):
        return f"{self.severity}: {self.map_id}: {self.message}"


def validate_mapping(
    m: MappingDocument, available_columns: dict[str, set[str]]
) -> list[Diagnostic]:
    """Check a mapping against the tables it will run on: the one rule for
    what a mapping reads from its tables.

    Each map's logical table must be provided, and every column its term
    maps and join conditions read must be one of that table's. A parent
    triples map that is not one of `m.triples_maps`, reachable only
    through a reference, is checked at the first reference of each map
    that reaches it: its logical table, unless that is the referring
    map's own, and its subject map's columns are errors of the referring
    map. A parent in the document is checked as its own map.

    Errors block conversion; warnings do not. An empty error set is the
    precondition of convert(), which reads no row until it holds.
    """
    out: list[Diagnostic] = []
    used_tables: set[str] = set()

    def err(tm_id: str, msg: str) -> None:
        out.append(Diagnostic("error", tm_id, msg))

    def warn(tm_id: str, msg: str) -> None:
        out.append(Diagnostic("warning", tm_id, msg))

    def check_columns(tm_id: str, table: str, term_map: TermMap, what: str) -> None:
        cols = available_columns.get(table)
        if cols is None:
            return  # missing table reported once per map
        for c in term_map.source_columns():
            if c not in cols:
                err(tm_id, f"{what} references column {c!r} absent from table {table!r}")

    in_document = {id(tm) for tm in m.triples_maps}
    for tm in m.triples_maps:
        tm_id = tm.id.to_ntriples()
        used_tables.add(tm.logical_table)
        # the parents checked as their own maps, or at a reference of tm
        checked = set(in_document)
        if tm.logical_table not in available_columns:
            err(tm_id, f"logical table {tm.logical_table!r} was not provided")
        check_columns(tm_id, tm.logical_table, tm.subject_map, "subject map")
        seen_classes: set[Iri] = set()
        for c in tm.subject_classes:
            if c in seen_classes:
                warn(tm_id, f"duplicate rr:class {c.to_ntriples()} (harmless under set semantics)")
            seen_classes.add(c)
        for pom in tm.predicate_object_maps:
            check_columns(tm_id, tm.logical_table, pom.predicate, "predicate map")
            if isinstance(pom.object, RefObjectMap):
                rom = pom.object
                parent_table = rom.parent.logical_table
                used_tables.add(parent_table)
                if id(rom.parent) not in checked:
                    checked.add(id(rom.parent))
                    if parent_table != tm.logical_table and parent_table not in available_columns:
                        err(tm_id, f"logical table {parent_table!r} was not provided")
                    parent_subject = rom.parent.subject_map
                    check_columns(tm_id, parent_table, parent_subject, "parent subject map")
                parent_cols = available_columns.get(parent_table)
                child_cols = available_columns.get(tm.logical_table)
                if not rom.joins and parent_table != tm.logical_table:
                    err(
                        tm_id,
                        f"reference to {rom.parent.id.to_ntriples()} needs a join condition: "
                        f"parent table {parent_table!r} differs from {tm.logical_table!r}",
                    )
                for child, parent in rom.joins:
                    if child_cols is not None and child not in child_cols:
                        err(tm_id, f"join child column {child!r} absent from {tm.logical_table!r}")
                    if parent_cols is not None and parent not in parent_cols:
                        err(tm_id, f"join parent column {parent!r} absent from {parent_table!r}")
            else:
                check_columns(tm_id, tm.logical_table, pom.object, "object map")

    for table in sorted(set(available_columns) - used_tables):
        warn("-", f"table {table!r} is not used by any triples map")
    return out
