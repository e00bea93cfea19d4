"""An in-memory, indexed triple set with set semantics.

The graph keeps its triples in insertion order, deduplicated once in a
dict, plus three positional indexes (subject, predicate, object) whose
buckets are lists in that same order. Iteration and `match` follow
insertion order and never sort: an RDF graph has no order of its own, so
callers that print sort (`serialize_ntriples`, `execute`,
`validate_graph`).

Writes keep only the dict: the indexes are built the first time `match`
needs them, or by `merge`, and are kept current by later writes.
Construction is single-writer. Once written, a graph can be read from
any number of threads; readers racing to the first build may each build
the indexes, but none sees a partial one.
"""

from __future__ import annotations

from typing import Collection, Iterable, Iterator, Mapping, Optional, Sequence

from .terms import Iri, Term, Triple

_Index = dict[Term, list[Triple]]


def _index_triple(index: tuple[_Index, _Index, _Index], t: Triple) -> None:
    by_s, by_p, by_o = index
    by_s.setdefault(t.s, []).append(t)
    by_p.setdefault(t.p, []).append(t)
    by_o.setdefault(t.o, []).append(t)


class Graph:
    __slots__ = ("_triples", "_index")

    def __init__(self, triples: Iterable[Triple] = ()):
        self._triples: dict[Triple, None] = {}
        # (by subject, by predicate, by object) once built, else None
        self._index: Optional[tuple[_Index, _Index, _Index]] = None
        self.update(triples)

    def add(self, t: Triple) -> bool:
        """Insert one triple; returns True iff it was not already present."""
        before = len(self._triples)
        self._triples.setdefault(t)
        if len(self._triples) == before:
            return False
        if self._index is not None:
            _index_triple(self._index, t)
        return True

    def update(self, other: Iterable[Triple]) -> None:
        if self._index is not None:
            for t in other:
                self.add(t)
        elif isinstance(other, Graph):
            self._triples.update(other._triples)  # reuses the stored hashes
        else:
            self._triples.update(dict.fromkeys(other))

    def _indexes(self) -> tuple[_Index, _Index, _Index]:
        """The position indexes, built from the dict on first use."""
        index = self._index
        if index is None:
            index = ({}, {}, {})
            for t in self._triples:
                _index_triple(index, t)
            # published by one assignment, once complete
            self._index = index
        return index

    def buckets(self, position: int) -> Mapping[Term, Sequence[Triple]]:
        """Each term at `position` (0 subject, 1 predicate, 2 object) with
        the triples holding it there, in insertion order.

        Every triple is in exactly one bucket, so the mean bucket is
        `len(self) / len(buckets)`; a term no triple holds there is
        absent. Read only: the graph changes through `add` and `update`.
        """
        return self._indexes()[position]

    def match(
        self,
        s: Optional[Term] = None,
        p: Optional[Iri] = None,
        o: Optional[Term] = None,
    ) -> list[Triple]:
        """All triples matching the bound positions, in insertion order.

        Unbound (None) positions match anything. Candidates come from the
        smallest applicable index, so a fully unbound call is a full scan;
        only the other bound positions are tested. The result is a new
        list, not sorted; callers that print sort.
        """
        candidates: Collection[Triple] = self._triples
        if s is not None or p is not None or o is not None:
            keys = [s, p, o]
            at = None
            for pos, (index, key) in enumerate(zip(self._indexes(), keys)):
                if key is None:
                    continue
                bucket = index.get(key)
                if not bucket:
                    return []
                if at is None or len(bucket) < len(candidates):
                    candidates, at = bucket, pos
            # every triple in the bucket holds its key
            keys[at] = None
            s, p, o = keys
        if s is None and p is None and o is None:
            return list(candidates)
        return [
            t
            for t in candidates
            if (s is None or t.s == s)
            and (p is None or t.p == p)
            and (o is None or t.o == o)
        ]

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

    The result comes back indexed, ready to be shared between readers.
    Union is idempotent, so blank node labels are taken at face value;
    callers merging documents whose explicit labels must stay distinct
    should relabel before parsing.
    """
    out = Graph()
    for g in graphs:
        out.update(g)
    out._indexes()
    return out
