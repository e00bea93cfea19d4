"""A SPARQL SELECT subset over one or more merged graphs.

Grammar: PREFIX declarations, `SELECT ?v ...` or `SELECT (COUNT(*) AS ?n)`,
and a WHERE block of dot-separated triple patterns followed by FILTER
clauses (`FILTER(?v <op> literal)` with =, !=, <, <=, >, >=). Terms are
written as in Turtle and tokenised by `triplify.lexer`, the one module
that defines term syntax for both readers: strings may be short or long,
single or double quoted, IRIs may hold `\\u` escapes, and a `<` that does
not open an IRI (`?a < 65`) is the comparison operator. Blank nodes in
patterns act as variables with hidden names.

Evaluation plans, then runs each step over all rows at once. Rows are
tuples of term IDs indexed by slot, the first slots holding the query's
constants, resolved to the graph's IDs once per execution (a constant
the graph lacks matches nothing). So every bound position of a pattern,
constant or variable, reads a row slot. A step that binds no variable
keeps the rows whose (s, p, o) IDs are a triple of the graph, one key
lookup per row; any other step is one comprehension over all rows,
whose candidates are the bucket of one bound slot's ID, or every
triple, with the other bound positions and any repeated variable tested
in it. The plan takes the patterns greedily, each time the one with the
fewest expected matches per row: a constant expects the exact size of
its index bucket (0 when absent, so the answer is empty at once), a
variable bound by an earlier step its index's mean bucket size; ties
keep written order. A FILTER runs at the step that first binds its
variable, so answers are those of testing every filter after all
patterns, whatever order patterns and filters are written in. `explain`
also reports the plan, each step's access (a key lookup, an index
position or a scan) and the rows left after each step and its filters.

A FILTER compares by value the datatypes `terms._DATATYPES` gives a
kind of value: xsd:integer, xsd:decimal and xsd:double by number, with
each other, xsd:date as XSD `op:date-less-than` orders them (a date
without a timezone is taken as Z), and xsd:boolean with false before
true, so `"1"` equals `true`. Ordering a term of another kind is an
error, which drops its row, as SPARQL 1.1 section 17.2 says; `=` and
`!=` on one are false and true. Integers and decimals have exact
values; a decimal met by a double is compared as a double (XPath numeric
type promotion, SPARQL 1.1 section 17.3), and an integer meets a double
by their exact values. As in SPARQL 1.1, `1.5` is an xsd:decimal and
`1.5e0` an xsd:double. Result rows are deduplicated and
canonically sorted; there is no ORDER BY.

What follows the steps stays in term IDs. A FILTER reads each term's
value from `Graph._valued`, a table the graph fills per ID as queries
meet them and drops on a write that adds a triple (see `graph`),
compares it with the operand's once per distinct ID in the rows, and
keeps a row by one set lookup; a value is converted only where a
decimal meets a double. Answers sort by the spellings the graph's term
table holds; only then are their terms made, by `Graph._made`, each once
per graph, not once per query, and each answer row is one dict display
of its terms, by a function made once per projection width
(`_row_maker`). A COUNT makes no term.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from functools import cache
from itertools import chain
from operator import eq, ge, gt, itemgetter, le, lt, ne
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .errors import TypeMismatchError, UnboundProjectionError
from .graph import Graph, Key, merge
from .lexer import TokenParser
from .terms import (
    _DATATYPES,
    _UNORDERED,
    RDF_TYPE,
    XSD_INTEGER,
    Literal,
    PrefixMap,
    Term,
)

# The FILTER operators; an ordering one needs an operand whose datatype
# terms._DATATYPES gives a kind of value.
_COMPARE = {"=": eq, "!=": ne, "<": lt, "<=": le, ">": gt, ">=": ge}
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
        return self.literal(tok, "a term")

    def filter_expr(self) -> FilterExpr:
        self.expect("(")
        var_tok = self.expect("var")
        op_tok = self.next()
        if op_tok.kind not in _COMPARE:
            raise self.error(f"expected comparison operator, got {op_tok.value!r}", op_tok)
        operand = self.literal(self.next(), "a term")
        self.expect(")")
        kind = _DATATYPES.get(operand.datatype.value, _UNORDERED)[1]
        if op_tok.kind in _ORDERING_OPS and kind is None:
            raise TypeMismatchError(
                f"ordering operator {op_tok.kind!r} needs a numeric, date or boolean operand"
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
#
# A row is a tuple of term IDs, indexed by slot: the query's constants in
# written order (None for one the graph lacks, which matches nothing),
# then the variables each step binds. So every bound position of a
# pattern reads a row slot. A step whose positions are all bound reads
# the row's (s, p, o) IDs as one key of the graph's triples; any other
# step's candidates are the bucket of one bound position's ID, or every
# triple, and one itemgetter reads from a row the IDs of the others.
# Candidates are the graph's keys, (s, p, o) tuples of IDs; a bucket
# is a tuple of them, never changed once its index is built.


@dataclass(slots=True)
class _Step:
    pattern: TriplePattern
    estimate: float  # expected matches per row
    # "key" when every position is bound, else the position ("s", "p" or
    # "o") whose index bucket gives the candidates, or "all" for a scan
    access: str
    # "key": the graph's triples and a row's (s, p, o) IDs; a position:
    # its index and a row's ID there; "all": one bucket of every triple,
    # under the empty key every row has
    index: Mapping[object, object]
    key: Callable[[tuple], object]
    # the other bound positions of a candidate, and the row's IDs for them;
    # both None when a candidate has nothing to test
    tested: Optional[Callable[[Key], object]]
    wanted: Optional[Callable[[tuple], object]]
    # the IDs of the variables first bound here, in slot order
    fresh: Callable[[Key], tuple]
    # where a fresh variable repeats, those positions, which must hold the
    # IDs at its `first` ones; both None when none repeats
    repeated: Optional[Callable[[Key], object]]
    first: Optional[Callable[[Key], object]]
    # the filters on the variables first bound here, in written order, each
    # a function from rows to the rows it keeps
    filters: tuple[Callable[[list[tuple]], list[tuple]], ...]

    def run(self, rows: list[tuple]) -> list[tuple]:
        """Every row extended by each of its matches, in one comprehension
        over all rows. Neither the graph's triples nor an index holds a
        literal subject, a non-IRI predicate or an absent constant's
        None, so a row binding one there matches nothing."""
        index, key, fresh, tested = self.index, self.key, self.fresh, self.tested
        if self.access == "key":
            return [row for row in rows if key(row) in index]
        get = index.get
        if tested is None:
            return [row + fresh(t) for row in rows for t in get(key(row), ())]
        wanted, repeated, first = self.wanted, self.repeated, self.first
        return [
            row + fresh(t)
            for row in rows
            for want in [wanted(row)]
            for t in get(key(row), ())
            if tested(t) == want and (repeated is None or repeated(t) == first(t))
        ]


@dataclass(slots=True)
class _Plan:
    steps: tuple[_Step, ...]
    slots: dict[str, int]  # variable name -> slot
    row: tuple  # the row every answer extends: the constants' IDs


def _values(*positions: int) -> Callable[[Sequence], tuple]:
    """A getter of the items at `positions`, always as a tuple
    (itemgetter gives a bare item for one position)."""
    if len(positions) == 1:
        (at,) = positions
        return itemgetter(slice(at, at + 1))
    return itemgetter(*positions) if positions else itemgetter(slice(0, 0))


def _plan(g: Graph, q: Query) -> _Plan:
    """Order the patterns greedily, fewest expected matches per row first
    (ties in written order), and compile each into a step.

    A pattern expects the least, over its constants, of the exact bucket
    size (0 when absent), and then over its bound variables, of the mean
    one; the position giving the least, if any, is where the step's
    candidates come from. An index is read only where a pattern needs it.
    """
    ids = g._ids
    size = len(g)
    row: list = []
    # (pattern, slots read, least constant bucket size and its position, variables)
    remaining = []
    for pat in q.patterns:
        read: list = [None, None, None]  # the slot each position reads, once bound
        exact, exact_at = size, None
        variables = []
        for pos, term in enumerate((pat.s, pat.p, pat.o)):
            if isinstance(term, Var):
                variables.append((pos, term.name))
                continue
            read[pos] = len(row)
            i = ids.get(term.to_ntriples())
            row.append(i)
            n = 0 if i is None else len(g._index(pos).get(i, ()))
            if n < exact:
                exact, exact_at = n, pos
        remaining.append((pat, read, exact, exact_at, variables))
    slots: dict[str, int] = {}
    steps: list[_Step] = []
    while remaining:
        best = None
        for i, (_, _, exact, exact_at, variables) in enumerate(remaining):
            estimate, via = exact, exact_at
            for pos, name in variables:
                if name in slots:
                    mean = size / len(g._index(pos)) if size else 0.0
                    if mean < estimate:
                        estimate, via = mean, pos
            if best is None or estimate < best:
                best, at, position = estimate, i, via
        pat, read, _, _, variables = remaining.pop(at)
        fresh: dict[str, int] = {}  # variable -> first position binding it here
        repeats: list[tuple[int, int]] = []  # (position, its variable's first)
        for pos, name in variables:
            if name in slots:
                read[pos] = slots[name]
            elif name in fresh:
                repeats.append((pos, fresh[name]))
            else:
                fresh[name] = pos
        tested, wanted = [], []
        if not fresh:
            access, index, key = "key", g._triples, itemgetter(*read)
        else:
            if position is None:
                access, index, key = "all", {(): g._triples}, _values()
            else:
                # a step expecting no match (an absent constant) reads no index
                index = g._index(position) if best else {}
                access, key = "spo"[position], itemgetter(read[position])
            # every candidate holds the row's ID at `position`; the other
            # bound positions are tested
            for pos, slot in enumerate(read):
                if slot is not None and pos != position:
                    tested.append(pos)
                    wanted.append(slot)
        for name in fresh:
            slots[name] = len(row) + len(slots)
        # a step whose only test is a repeat compares empty tuples for the rest
        steps.append(
            _Step(
                pat,
                best,
                access,
                index,
                key,
                itemgetter(*tested) if tested else _values() if repeats else None,
                itemgetter(*wanted) if tested else _values() if repeats else None,
                _values(*fresh.values()),
                itemgetter(*(pos for pos, _ in repeats)) if repeats else None,
                itemgetter(*(first for _, first in repeats)) if repeats else None,
                tuple(_filter(f, g, slots[f.var.name]) for f in q.filters if f.var.name in fresh),
            )
        )
    return _Plan(tuple(steps), slots, tuple(row))


def _solve(g: Graph, q: Query) -> tuple[_Plan, list[tuple], list[int]]:
    """The plan, every matching row, and the rows left after each step
    and its filters.

    Each step runs, then the filters on the variables it first binds. A
    filter's outcome on a row is a function of its variable's term alone,
    and one that cannot order the term drops the row (SPARQL 1.1 section
    17.2), so the rows left are those of testing every filter after all
    patterns, whatever order patterns and filters are written in.
    """
    plan = _plan(g, q)
    rows = [plan.row]
    counts: list[int] = []
    for step in plan.steps:
        rows = step.run(rows)
        for keep in step.filters:
            rows = keep(rows)
        counts.append(len(rows))
        if not rows:
            break
    return plan, rows, counts


def _filter(f: FilterExpr, g: Graph, slot: int) -> Callable[[list[tuple]], list[tuple]]:
    """The filter as a function from rows to the rows it keeps, in order,
    reading each row's term ID at `slot`.

    The outcome is a function of the term, so it is found once per
    distinct ID in the rows, by one comparison of the term's value, read
    from g's table of values (`Graph._valued`), with the operand's; a
    row is then kept by one set lookup. On a term of another kind, an
    ordering operator and = are False and != True: the error of ordering
    it drops the row, as SPARQL 1.1 section 17.2 says."""
    op, operand = f.op, f.operand
    _, kind, value = _DATATYPES.get(operand.datatype.value, _UNORDERED)
    if kind is None:
        # equality on everything else is term equality: one ID, as the
        # operand, a literal, is the term it equals or absent from g
        equal_to = g._ids.get(operand.to_ntriples())
        if op == "=":
            return lambda rows: [r for r in rows if r[slot] == equal_to]
        return lambda rows: [r for r in rows if r[slot] != equal_to]
    compare, bound = _COMPARE[op], value(operand.lexical)
    # a decimal met by a double is compared as a double; any other two
    # values of one kind compare as they are (an integer meets either
    # exactly), so only a value of this type is converted
    promoted = {Decimal: float, float: Decimal}.get(type(bound))

    def keep(rows: list[tuple]) -> list[tuple]:
        ids = set(map(itemgetter(slot), rows))
        valued = g._valued(ids)
        kept = set()
        for i in ids:
            its_kind, its_value = valued[i]
            if its_kind != kind:
                if op == "!=":
                    kept.add(i)
            elif type(its_value) is promoted:
                if compare(float(its_value), float(bound)):
                    kept.add(i)
            elif compare(its_value, bound):
                kept.add(i)
        return [r for r in rows if r[slot] in kept]

    return keep


def _evaluate(g: Graph, q: Query) -> tuple[Solution, _Plan, list[int]]:
    plan, rows, counts = _solve(g, q)
    if q.count_var is not None:
        row = {q.count_var: Literal(str(len(rows)), XSD_INTEGER)}
        return Solution((q.count_var,), [row]), plan, counts
    keys = list(dict.fromkeys(map(_values(*(plan.slots[v] for v in q.variables)), rows)))
    if len(keys) > 1:
        # rows sort by their terms' spellings, the graph's term table; two
        # distinct keys differ in some spelling, so no key is compared
        spellings = (map(g._terms.__getitem__, column) for column in zip(*keys))
        keys = list(map(itemgetter(-1), sorted(zip(*spellings, keys))))
    made = g._made(chain.from_iterable(keys))
    rows = _row_maker(len(q.variables))(made, keys, *q.variables)
    return Solution(q.variables, rows), plan, counts


@cache
def _row_maker(width: int) -> Callable[..., list[dict[str, Term]]]:
    """A function of a table of terms by ID, keys of `width` IDs and
    `width` variable names, giving each key's answer row, each made by
    one dict display: `{k0: made[v0], k1: made[v1]}` for width 2. The
    names are arguments, never part of the source, so any name is safe;
    a name repeated in the projection gets one entry, as its slots hold
    one ID."""
    names = [f"k{i}" for i in range(width)]
    ids = [f"v{i}" for i in range(width)]
    display = ", ".join(f"{k}: made[{v}]" for k, v in zip(names, ids))
    rows = f"[{{{display}}} for ({', '.join(ids)},) in keys]"
    return eval(f"lambda made, keys, {', '.join(names)}: {rows}", {})


def execute(g: Graph, q: Query) -> Solution:
    """Evaluate a query; rows are deduplicated and canonically sorted."""
    return _evaluate(g, q)[0]


def _pattern_text(pat: TriplePattern) -> str:
    """The pattern in N-Triples terms, its variables as `?name` or `_:label`."""
    words = []
    for t in (pat.s, pat.p, pat.o):
        if not isinstance(t, Var):
            words.append(t.to_ntriples())
        else:
            words.append(t.name if t.name.startswith("_:") else f"?{t.name}")
    return " ".join(words)


def explain(g: Graph, q: Query) -> tuple[Solution, dict]:
    """Evaluate as `execute` does, and say how: the steps in the order
    chosen, each with its pattern, its estimate of matches per row, its
    access ("key" for one lookup of its fully bound triple, "s", "p" or
    "o" for the index whose bucket it reads, "all" for a scan) and the
    rows left after it and the filters on the variables it first binds
    (None for a step not reached because an earlier one left no rows)."""
    solution, plan, counts = _evaluate(g, q)
    steps = [
        {
            "pattern": _pattern_text(step.pattern),
            "estimate": round(step.estimate, 3),
            "access": step.access,
            "rows": counts[i] if i < len(counts) else None,
        }
        for i, step in enumerate(plan.steps)
    ]
    return solution, {"steps": steps}


def merge_and_query(graphs: Iterable[Graph], q: Query) -> Solution:
    """Evaluate over the set-union of several graphs."""
    return execute(merge(graphs), q)
