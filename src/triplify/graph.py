"""An in-memory, indexed triple set with set semantics.

The graph keeps its triples in insertion order, deduplicated once in a
dict, plus three positional indexes (subject, predicate, object) whose
buckets are lists in that same order. Iteration and `match` follow
insertion order and never sort: an RDF graph has no order of its own, so
callers that print sort (`serialize_ntriples`, `execute`,
`validate_graph`). Construction is single-writer; once built, a graph
can be read from any number of threads.
"""

from __future__ import annotations

from typing import Collection, Iterable, Iterator, Optional

from .terms import Iri, Term, Triple


class Graph:
    __slots__ = ("_triples", "_by_s", "_by_p", "_by_o")

    def __init__(self, triples: Iterable[Triple] = ()):
        self._triples: dict[Triple, None] = {}
        self._by_s: dict[Term, list[Triple]] = {}
        self._by_p: dict[Term, list[Triple]] = {}
        self._by_o: dict[Term, list[Triple]] = {}
        for t in triples:
            self.add(t)

    def add(self, t: Triple) -> bool:
        """Insert one triple; returns True iff it was not already present."""
        before = len(self._triples)
        self._triples.setdefault(t)
        if len(self._triples) == before:
            return False
        self._by_s.setdefault(t.s, []).append(t)
        self._by_p.setdefault(t.p, []).append(t)
        self._by_o.setdefault(t.o, []).append(t)
        return True

    def update(self, other: Iterable[Triple]) -> None:
        for t in other:
            self.add(t)

    def match(
        self,
        s: Optional[Term] = None,
        p: Optional[Iri] = None,
        o: Optional[Term] = None,
    ) -> list[Triple]:
        """All triples matching the bound positions, in insertion order.

        Unbound (None) positions match anything. Candidates come from the
        smallest applicable index, so a fully unbound call is a full scan.
        The result is not sorted; callers that print sort.
        """
        candidates: Collection[Triple] | None = None
        for index, key in ((self._by_s, s), (self._by_p, p), (self._by_o, o)):
            if key is None:
                continue
            bucket = index.get(key)
            if not bucket:
                return []
            if candidates is None or len(bucket) < len(candidates):
                candidates = bucket
        if candidates is None:
            candidates = self._triples
        return [
            t
            for t in candidates
            if (s is None or t.s == s)
            and (p is None or t.p == p)
            and (o is None or t.o == o)
        ]

    def subjects(self, p: Optional[Iri] = None, o: Optional[Term] = None):
        """Distinct subjects of triples matching (p, o)."""
        return {t.s for t in self.match(None, p, o)}

    def objects(self, s: Optional[Term] = None, p: Optional[Iri] = None):
        """Distinct objects of triples matching (s, p)."""
        return {t.o for t in self.match(s, p, None)}

    def value(self, s: Term, p: Iri) -> Optional[Term]:
        """The single object of (s, p, ?), or None; raises if ambiguous."""
        found = self.objects(s, p)
        if not found:
            return None
        if len(found) > 1:
            raise ValueError(f"multiple objects for {s!r} {p!r}")
        return next(iter(found))

    def __contains__(self, t: Triple) -> bool:
        return t in self._triples

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self._triples == other._triples

    def __repr__(self):
        return f"<Graph with {len(self._triples)} triples>"


def merge(graphs: Iterable[Graph]) -> Graph:
    """Set-union of several graphs; insertion order never matters.

    Union is idempotent, so blank node labels are taken at face value;
    callers merging documents whose explicit labels must stay distinct
    should relabel before parsing.
    """
    out = Graph()
    for g in graphs:
        out.update(g)
    return out
