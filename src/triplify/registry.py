"""The bundled clinical-registry model.

Ships four things: an ontology-coded vocabulary (classes and predicates
grouped into demographic / tumour / treatment categories around a central
patient class), shape constraints over converted graphs, a validator
that checks a constraint at a time from its predicate's triples
(`validate_graph`), and a deterministic synthetic data generator that
stands in for the real registry tables.

Vocabulary and shapes live in committed data files (see data/), loaded
here; the ontology codes are data and can be re-pointed without touching
code.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass
from datetime import date, timedelta
from decimal import Decimal
from functools import cache
from importlib import resources
from itertools import compress
from operator import itemgetter
from typing import Iterator, Optional

from .errors import TriplifyError
from .graph import Graph
from .lexer import split_lines
from .r2rml import MappingDocument, parse_mapping
from .tabular import TableSource
from .terms import (
    RDF_NS,
    RDF_TYPE,
    XSD_NS,
    Iri,
    PrefixMap,
    Term,
    exact_int,
    literal_test,
)
from .turtle import parse_turtle

NCIT_NS = "http://purl.obolibrary.org/obo/NCIT_"
ROO_NS = "http://www.cancerdata.org/roo/"
DATA_NS = "https://data.example.org/registry/"

_CATEGORIES = ("demographic", "tumour", "treatment", "core")
_ROLES = ("class", "predicate")


def registry_prefixes() -> PrefixMap:
    return PrefixMap(
        {
            "rdf": RDF_NS,
            "xsd": XSD_NS,
            "ncit": NCIT_NS,
            "roo": ROO_NS,
            "data": DATA_NS,
        }
    )


def _data_text(filename: str) -> str:
    return resources.files("triplify").joinpath("data", filename).read_text("utf-8")


def _expand(prefixes: PrefixMap, curie: str, where: str) -> Iri:
    """prefixes.expand(curie), any failure a TriplifyError that names `where`."""
    try:
        return prefixes.expand(curie)
    except (ValueError, TriplifyError) as exc:
        raise TriplifyError(f"{where}: {exc}") from None


def _tsv_records(text: str, width: int, what: str) -> Iterator[tuple[str, list[str]]]:
    """("<what> line N", stripped fields) for each line that is neither
    blank nor a `#` comment; a line without `width` fields is an error.
    Lines are split as N-Triples splits them (`lexer.split_lines`)."""
    for lineno, raw in enumerate(split_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{what} line {lineno}"
        fields = raw.split("\t")
        if len(fields) != width:
            raise TriplifyError(f"{where}: expected {width} tab-separated fields")
        yield where, [f.strip() for f in fields]


# --- vocabulary ---------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class VocabularyTerm:
    curie: str
    iri: Iri
    label: str
    role: str  # "class" | "predicate"
    category: str  # "demographic" | "tumour" | "treatment" | "core"


def load_vocabulary(text: str) -> list[VocabularyTerm]:
    """Read `curie TAB label TAB role TAB category` lines; CURIEs use the
    registry prefixes."""
    prefixes = registry_prefixes()
    terms: list[VocabularyTerm] = []
    for where, (curie, label, role, category) in _tsv_records(text, 4, "vocabulary"):
        if role not in _ROLES:
            raise TriplifyError(f"{where}: bad role {role!r}")
        if category not in _CATEGORIES:
            raise TriplifyError(f"{where}: bad category {category!r}")
        if not label:
            raise TriplifyError(f"{where}: empty label")
        terms.append(
            VocabularyTerm(
                curie=curie,
                iri=_expand(prefixes, curie, where),
                label=label,
                role=role,
                category=category,
            )
        )
    return terms


@cache
def _bundled(load, filename: str) -> tuple:
    """What `load` reads from a bundled data file, read once per process."""
    return tuple(load(_data_text(filename)))


def builtin_vocabulary() -> list[VocabularyTerm]:
    return list(_bundled(load_vocabulary, "vocabulary.tsv"))


def term_by_label(label: str) -> VocabularyTerm:
    """The builtin vocabulary's term with this label."""
    for term in builtin_vocabulary():
        if term.label == label:
            return term
    raise KeyError(label)


def predicate_categories() -> dict[Iri, str]:
    """Builtin predicate IRI -> category, for grouping edges Figure-style."""
    return {t.iri: t.category for t in builtin_vocabulary() if t.role == "predicate"}


# --- shapes -------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ShapeConstraint:
    predicate: Iri
    kind: str  # "class" | "literal"
    kind_iri: Iri
    min_count: int
    max_count: Optional[int]  # None = unbounded


@dataclass(frozen=True, slots=True)
class Shape:
    target_class: Iri
    constraints: tuple[ShapeConstraint, ...]


_COUNT = re.compile(r"[0-9]+")


def load_shapes(text: str) -> list[Shape]:
    """Read `class TAB predicate TAB kind TAB min TAB max` lines.

    kind is `class(curie)` or `literal(curie)`; a count is a run of the
    digits 0-9, of any length, and max may be `*`. CURIEs use the
    registry prefixes.
    """
    prefixes = registry_prefixes()
    grouped: dict[Iri, list[ShapeConstraint]] = {}
    for where, (cls, pred, kind_text, min_text, max_text) in _tsv_records(text, 5, "shapes"):
        if kind_text.startswith("class(") and kind_text.endswith(")"):
            kind, kind_curie = "class", kind_text[6:-1]
        elif kind_text.startswith("literal(") and kind_text.endswith(")"):
            kind, kind_curie = "literal", kind_text[8:-1]
        else:
            raise TriplifyError(f"{where}: bad kind {kind_text!r}")
        if _COUNT.fullmatch(min_text) is None or (
            max_text != "*" and _COUNT.fullmatch(max_text) is None
        ):
            raise TriplifyError(
                f"{where}: counts must be runs of the digits 0-9: {min_text!r}, {max_text!r}"
            )
        min_count = exact_int(min_text)
        max_count = None if max_text == "*" else exact_int(max_text)
        if max_count is not None and min_count > max_count:
            raise TriplifyError(f"{where}: min exceeds max")
        grouped.setdefault(_expand(prefixes, cls, where), []).append(
            ShapeConstraint(
                predicate=_expand(prefixes, pred, where),
                kind=kind,
                kind_iri=_expand(prefixes, kind_curie, where),
                min_count=min_count,
                max_count=max_count,
            )
        )
    return [Shape(cls, tuple(cs)) for cls, cs in grouped.items()]


def builtin_shapes() -> list[Shape]:
    return list(_bundled(load_shapes, "shapes.tsv"))


# --- validation -----------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Violation:
    focus: Term
    target_class: Iri
    predicate: Iri
    message: str
    observed_count: Optional[int] = None
    offending: Optional[Term] = None

    def line(self) -> str:
        return (
            f"{self.focus.to_ntriples()}\t{self.target_class.to_ntriples()}"
            f"\t{self.predicate.to_ntriples()}\t{self.message}"
        )


@dataclass(slots=True)
class ValidationReport:
    violations: list[Violation]

    @property
    def conforms(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        return [v.line() for v in self.violations]


def validate_graph(g: Graph, shapes: list[Shape]) -> ValidationReport:
    """Check every instance of each shape's target class.

    For `class` constraints the object must be an IRI or blank node that
    itself has the required rdf:type; for `literal` constraints it must
    be a literal of the required datatype. Objects of the wrong kind are
    reported individually, in canonical order, and do not count toward
    cardinality.

    The graph is read from its predicate index, by term ID, a constraint
    at a time, each from its predicate's bucket alone; each class's
    members are grouped once. A constraint finds its bad objects once per distinct
    object, by the datatype a literal's spelling ends in or by the
    class's members, and reports the focus nodes that hold one. Then it
    counts each subject's conforming values in one `Counter`, but only
    when a bound can need the counts: a minimum above 1, or a maximum
    below the bucket's size. A focus node that holds no conforming value
    has a count of 0, and one that holds some is read from the counts
    only when the minimum is above 1 or the largest count is above the
    maximum. A shape's violations are found constraint by constraint and
    put in focus order by one stable sort, so a focus node's violations
    keep their constraint order, its bad objects before its count. Only
    the predicate index is built, and term objects are made only for the
    violations, once they are all found.
    """
    terms, by_p = g._terms, g._index(1)

    def id_of(term: Term) -> Optional[int]:
        return g._ids.get(term.to_ntriples())

    members: dict[int, set[int]] = {}
    for s, _, o in by_p.get(id_of(RDF_TYPE), ()):
        members.setdefault(o, set()).add(s)

    # each violation's fields, its focus and offending object as term IDs
    found: list[tuple] = []
    for shape in shapes:
        focuses = members.get(id_of(shape.target_class))
        if not focuses:
            continue
        cls, of_shape = shape.target_class, []
        for c in shape.constraints:
            p, lo, hi = c.predicate, c.min_count, c.max_count
            bucket = by_p.get(id_of(p), ())
            objects = set(map(itemgetter(2), bucket))
            if c.kind == "literal":
                of_datatype = literal_test(c.kind_iri.value)
                bad = {o for o in objects if not of_datatype(terms[o])}
                flaw = "is not a literal of datatype"
            else:
                # members are subjects, so a literal is never one
                bad = objects.difference(members.get(id_of(c.kind_iri), ()))
                flaw = "lacks required type"
            held = map(itemgetter(0), bucket)
            if bad:
                flaw = f"{flaw} {c.kind_iri.to_ntriples()}"
                flawed = compress(bucket, map(bad.__contains__, map(itemgetter(2), bucket)))
                pairs = sorted((terms[o], s, o) for s, _, o in flawed if s in focuses)
                of_shape += [(s, cls, p, f"object {text} {flaw}", None, o) for text, s, o in pairs]
                good = objects - bad
                held = compress(held, map(good.__contains__, map(itemgetter(2), bucket)))
            # no subject holds more values than the bucket has triples
            top = len(bucket) if hi is None else hi
            counted = lo > 1 or top < len(bucket)
            counts = Counter(held) if counted else held if lo else ()
            out = [(s, 0) for s in focuses.difference(counts)] if lo else []
            if counted and (lo > 1 or max(counts.values(), default=0) > top):
                out += [(s, n) for s, n in counts.items() if not lo <= n <= top and s in focuses]
            # a bound is spelt through Decimal: str() refuses an int of
            # more than 4,300 digits; `top` is `hi` wherever a count is above it
            below = f"expected at least {Decimal(lo)} conforming value(s), found "
            above = f"expected at most {Decimal(top)} conforming value(s), found "
            of_shape += [(s, cls, p, f"{below if n < lo else above}{n}", n, None) for s, n in out]
        of_shape.sort(key=lambda v: terms[v[0]])
        found += of_shape
    made = g._made(i for v in found for i in (v[0], v[5]) if i is not None)
    return ValidationReport(
        [
            Violation(made[focus], cls, p, message, observed, None if o is None else made[o])
            for focus, cls, p, message, observed, o in found
        ]
    )


# --- synthetic data ---------------------------------------------------------------

PATIENT_COLUMNS = ("ID", "AGE", "SEX", "TUMOUR_SITE")
TREATMENT_COLUMNS = ("ID", "PATIENT_ID", "RT_START_DATE", "MODALITY", "MODALITY_CODE")

_SEX_CODES = ("C16576", "C20197")
_SITE_CODES = ("C12468", "C12420", "C12971")
_MODALITIES = (("proton", "C15402"), ("photon", "C104914"))
_FIRST_DAY = date(2019, 1, 1)
_DAY_SPAN = (date(2023, 12, 31) - _FIRST_DAY).days


def generate_synthetic(n: int, seed: int) -> dict[str, TableSource]:
    """Deterministic flat tables for n patients: PATIENT plus TREATMENT.

    Each patient gets one to three treatment rows; converting the result
    with the bundled mapping yields a graph that validates cleanly
    against the builtin shapes. Values are uniform draws from fixed code
    lists — fixtures, not clinical realism.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = random.Random(seed)
    patients = []
    treatments = []
    treatment_id = 0
    for pid in range(1, n + 1):
        patients.append(
            {
                "ID": str(pid),
                "AGE": str(rng.randint(18, 90)),
                "SEX": rng.choice(_SEX_CODES),
                "TUMOUR_SITE": rng.choice(_SITE_CODES),
            }
        )
        for _ in range(rng.randint(1, 3)):
            treatment_id += 1
            day = _FIRST_DAY + timedelta(days=rng.randrange(_DAY_SPAN + 1))
            modality, code = rng.choice(_MODALITIES)
            treatments.append(
                {
                    "ID": f"T{treatment_id}",
                    "PATIENT_ID": str(pid),
                    "RT_START_DATE": day.isoformat(),
                    "MODALITY": modality,
                    "MODALITY_CODE": code,
                }
            )
    return {
        "PATIENT": TableSource("PATIENT", PATIENT_COLUMNS, patients),
        "TREATMENT": TableSource("TREATMENT", TREATMENT_COLUMNS, treatments),
    }


def bundled_mapping_text() -> str:
    return _data_text("mapping.ttl")


def bundled_mapping() -> MappingDocument:
    """The registry mapping shipped with the package, parsed and ready."""
    doc, prefixes = parse_turtle(bundled_mapping_text())
    return parse_mapping(doc, prefixes, source_name="data/mapping.ttl")
