"""A SPARQL SELECT subset over one or more merged graphs.

Grammar: PREFIX declarations, `SELECT ?v ...` or `SELECT (COUNT(*) AS ?n)`,
and a WHERE block of dot-separated triple patterns followed by FILTER
clauses (`FILTER(?v <op> literal)` with =, !=, <, <=, >, >=). Terms are
written as in Turtle and tokenised by `triplify.lexer`, the one module
that defines term syntax for both readers: strings may be short or long,
single or double quoted, IRIs may hold `\\u` escapes, and a `<` that does
not open an IRI (`?a < 65`) is the comparison operator. Blank nodes in
patterns act as variables with hidden names.

Evaluation is a left-to-right nested-loop join over index-backed matches:
no optimizer, but the solution set is independent of pattern order.
Result rows are deduplicated and canonically sorted; there is no ORDER BY.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .errors import TypeMismatchError, UnboundProjectionError
from .graph import Graph, merge
from .lexer import Token, TokenParser
from .terms import (
    RDF_TYPE,
    XSD_DATE,
    XSD_DOUBLE,
    XSD_INTEGER,
    Iri,
    Literal,
    PrefixMap,
    Term,
)

_NUMERIC_DATATYPES = (XSD_INTEGER, XSD_DOUBLE)
_ORDERING_OPS = ("<", "<=", ">", ">=")


@dataclass(frozen=True, slots=True)
class Var:
    name: str

    def __repr__(self):
        return f"?{self.name}"


PatternTerm = Union[Term, Var]


@dataclass(frozen=True, slots=True)
class TriplePattern:
    s: PatternTerm
    p: PatternTerm
    o: PatternTerm


@dataclass(frozen=True, slots=True)
class FilterExpr:
    var: Var
    op: str
    operand: Literal


@dataclass(frozen=True, slots=True)
class Query:
    variables: tuple[str, ...]  # projection, in SELECT order
    count_var: Optional[str]
    patterns: tuple[TriplePattern, ...]
    filters: tuple[FilterExpr, ...]


@dataclass(slots=True)
class Solution:
    variables: tuple[str, ...]
    rows: list[dict[str, Term]]

    def to_tsv(self) -> str:
        """Header of ?names, then canonical N-Triples terms, tab-separated."""
        lines = ["\t".join("?" + v for v in self.variables)]
        for row in self.rows:
            lines.append("\t".join(row[v].to_ntriples() for v in self.variables))
        return "\n".join(lines) + "\n"


# --- parser ----------------------------------------------------------------

_COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")


class _QueryParser(TokenParser):
    def __init__(self, text: str, prefixes: Optional[PrefixMap]):
        super().__init__(text, None, prefixes.copy() if prefixes is not None else PrefixMap())

    # SPARQL keywords are case-insensitive, except `a`
    def at_keyword(self, name: str) -> bool:
        tok = self.peek()
        return tok.kind == "word" and tok.value.lower() == name

    def expect_keyword(self, name: str) -> None:
        if not self.at_keyword(name):
            tok = self.peek()
            raise self.error(f"expected {name.upper()!r}, got {tok.value!r}", tok)
        self.next()

    def parse(self) -> Query:
        while self.at_keyword("prefix"):
            self.next()
            name = self.expect("pname")
            if not name.value.endswith(":"):
                raise self.error("prefix declarations end in ':'", name)
            self.prefixes.bind(name.value[:-1], self.iri(self.expect("iriref")))

        self.expect_keyword("select")
        variables: list[str] = []
        count_var: Optional[str] = None
        tok = self.peek()
        if self.at("("):
            self.next()
            self.expect_keyword("count")
            self.expect("(")
            self.expect("*")
            self.expect(")")
            self.expect_keyword("as")
            count_var = self.expect("var").value
            self.expect(")")
        else:
            while self.at("var"):
                variables.append(self.next().value)
            if not variables:
                raise self.error("SELECT needs variables or (COUNT(*) AS ?v)", tok)

        self.expect_keyword("where")
        self.expect("{")
        patterns = [self.pattern()]
        while self.at("."):
            self.next()
            if self.peek().kind not in ("var", "iriref", "pname", "blank"):
                break
            patterns.append(self.pattern())
        filters: list[FilterExpr] = []
        while self.at_keyword("filter"):
            self.next()
            filters.append(self.filter_expr())
            if self.at("."):
                self.next()
        self.expect("}")
        self.expect("eof")

        q = Query(tuple(variables), count_var, tuple(patterns), tuple(filters))
        self.check_bound(q)
        return q

    def pattern(self) -> TriplePattern:
        s = self.term(position="subject")
        p = self.term(position="predicate")
        o = self.term(position="object")
        return TriplePattern(s, p, o)

    def term(self, position: str) -> PatternTerm:
        tok = self.next()
        if tok.kind == "var":
            return Var(tok.value)
        if tok.kind == "word" and tok.value == "a":
            if position != "predicate":
                raise self.error("'a' is only valid as a predicate", tok)
            return RDF_TYPE
        if tok.kind == "blank":
            if position == "predicate":
                raise self.error("blank nodes cannot be predicates", tok)
            return Var("_:" + tok.value)
        if tok.kind == "(":
            raise self.error("collections are not supported", tok)
        if tok.kind in ("iriref", "pname") or position != "object":
            return self.iri(tok, f"IRI or variable as {position}")
        return self.operand(tok)

    def operand(self, tok: Token) -> Literal:
        if tok.kind in ("decimal", "double"):
            return Literal(tok.value, XSD_DOUBLE)
        return self.literal(tok, "a term")

    def filter_expr(self) -> FilterExpr:
        self.expect("(")
        var_tok = self.expect("var")
        op_tok = self.next()
        if op_tok.kind not in _COMPARISONS:
            raise self.error(f"expected comparison operator, got {op_tok.value!r}", op_tok)
        operand = self.operand(self.next())
        self.expect(")")
        if op_tok.kind in _ORDERING_OPS and operand.datatype not in (
            *_NUMERIC_DATATYPES,
            XSD_DATE,
        ):
            raise TypeMismatchError(
                f"ordering operator {op_tok.kind!r} needs a numeric or date operand"
            )
        return FilterExpr(Var(var_tok.value), op_tok.kind, operand)

    def check_bound(self, q: Query) -> None:
        bound = {t.name for pat in q.patterns for t in (pat.s, pat.p, pat.o) if isinstance(t, Var)}
        for v in q.variables:
            if v not in bound:
                raise UnboundProjectionError(f"?{v} appears in no pattern")
        for f in q.filters:
            if f.var.name not in bound:
                raise UnboundProjectionError(
                    f"filter variable ?{f.var.name} appears in no pattern"
                )


def parse_query(text: str, prefixes: Optional[PrefixMap] = None) -> Query:
    """Parse a SELECT query; raises ParseError / UnknownPrefixError /
    UnboundProjectionError / TypeMismatchError."""
    return _QueryParser(text, prefixes).parse()


# --- evaluation --------------------------------------------------------------

def _resolve(t: PatternTerm, binding: dict[str, Term]) -> Optional[Term]:
    if isinstance(t, Var):
        return binding.get(t.name)
    return t


def _solve(g: Graph, q: Query) -> list[dict[str, Term]]:
    bindings: list[dict[str, Term]] = [{}]
    for pat in q.patterns:
        nxt: list[dict[str, Term]] = []
        for b in bindings:
            s = _resolve(pat.s, b)
            p = _resolve(pat.p, b)
            o = _resolve(pat.o, b)
            if p is not None and not isinstance(p, Iri):
                continue  # a non-IRI bound to predicate position matches nothing
            if s is not None and isinstance(s, Literal):
                continue
            for t in g.match(s, p, o):
                nb = dict(b)
                ok = True
                for pos, val in ((pat.s, t.s), (pat.p, t.p), (pat.o, t.o)):
                    if isinstance(pos, Var):
                        seen = nb.get(pos.name)
                        if seen is None:
                            nb[pos.name] = val
                        elif seen != val:
                            ok = False
                            break
                if ok:
                    nxt.append(nb)
        bindings = nxt
        if not bindings:
            break
    return [b for b in bindings if all(_passes(f, b) for f in q.filters)]


def _numeric(lit: Literal) -> Union[int, float]:
    if lit.datatype == XSD_INTEGER:
        return int(lit.lexical)
    return float(lit.lexical)


def _compare(a, op: str, b) -> bool:
    if op == "=":
        return a == b
    if op == "!=":
        return a != b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    return a >= b


def _passes(f: FilterExpr, binding: dict[str, Term]) -> bool:
    term = binding[f.var.name]
    operand = f.operand
    if operand.datatype in _NUMERIC_DATATYPES:
        if not isinstance(term, Literal) or term.datatype not in _NUMERIC_DATATYPES:
            if f.op in ("=", "!="):
                return f.op == "!="
            raise TypeMismatchError(
                f"cannot order {term.to_ntriples()} against a numeric operand"
            )
        return _compare(_numeric(term), f.op, _numeric(operand))
    if operand.datatype == XSD_DATE:
        if not isinstance(term, Literal) or term.datatype != XSD_DATE:
            if f.op in ("=", "!="):
                return f.op == "!="
            raise TypeMismatchError(
                f"cannot order {term.to_ntriples()} against a date operand"
            )
        return _compare(term.lexical, f.op, operand.lexical)
    # equality on everything else is plain term equality
    equal = isinstance(term, Literal) and term == operand
    return equal if f.op == "=" else not equal


def execute(g: Graph, q: Query) -> Solution:
    """Evaluate a query; rows are deduplicated and canonically sorted."""
    matches = _solve(g, q)
    if q.count_var is not None:
        row = {q.count_var: Literal(str(len(matches)), XSD_INTEGER)}
        return Solution((q.count_var,), [row])
    seen: set[tuple] = set()
    rows: list[dict[str, Term]] = []
    for b in matches:
        key = tuple(b[v] for v in q.variables)
        if key not in seen:
            seen.add(key)
            rows.append(dict(zip(q.variables, key)))
    rows.sort(key=lambda r: tuple(r[v].to_ntriples() for v in q.variables))
    return Solution(q.variables, rows)


def merge_and_query(graphs: Iterable[Graph], q: Query) -> Solution:
    """Evaluate over the set-union of several graphs."""
    return execute(merge(graphs), q)
