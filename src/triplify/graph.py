"""An in-memory triple set over integer term IDs, with set semantics.

A graph keeps each distinct term once, in `_terms`, and names it by its
place there, its ID; `_ids` maps a term back to its ID, so equal terms
share one. A triple is stored as an `(s, p, o)` tuple of IDs, a key of
the insertion-ordered dict `_triples`. Each position (0 subject, 1
predicate, 2 object) has an index from an ID to the keys holding it
there, a list in insertion order. An index is built from `_triples` the
first time its position is read (`_index`). A write that adds a triple
drops every built index, and the next read builds it again; a graph is
loaded, then read, so no workload pays for that.

Two more tables, kept in their own slot, `_tables`, remember per term
ID what the query engine derives from a term: `_spelt`, its canonical
N-Triples spelling, and `_valued`, the value a FILTER orders it by. They
are filled an ID at a time, as a query first meets it, so one query
pays only for the terms in its rows and the next reuses them. They
follow the index rule: a write that adds a triple drops them.

A batch of keys goes in by one bulk insert, `_add_keys`, one
`dict.update`. The converter inserts each predicate-object map's
triples that way, `add` inserts a batch of one, and `update` and
`merge` insert each other graph's.

`Triple` is the public boundary: `add`, `update`, `match`, `in` and
iteration take or give triples, and build them only there. Inside the
package the readers hand in IDs (`_intern`, `_add_keys`),
and the validator, the query engine, `stats` and `serialize_ntriples`
read `_terms`, `_ids` and `_index` directly. Iteration and `match` follow
insertion order and never sort: an RDF graph has no order of its own,
so callers that print sort.

Construction is single-writer. Once written, a graph can be read from
any number of threads; readers racing to the first read of a position
may each build its index, but each publishes it by one assignment, so
none sees a partial one. Readers racing to the same term ID of a
table each store the same spelling or value.
"""

from __future__ import annotations

from itertools import filterfalse, repeat
from typing import Callable, Collection, Iterable, Iterator, Optional

from .terms import _DATATYPES, _UNORDERED, Iri, Literal, Term, Triple

Key = tuple[int, int, int]  # (subject, predicate, object) IDs
Index = dict[int, list[Key]]


class Graph:
    __slots__ = ("_terms", "_ids", "_triples", "_indexes", "_tables")

    def __init__(self, triples: Iterable[Triple] = ()):
        self._terms: list[Term] = []  # ID -> term
        self._ids: dict[Term, int] = {}  # term -> ID
        self._triples: dict[Key, None] = {}
        self._indexes: dict[int, Index] = {}  # position -> index, once built
        self._tables: dict[str, dict] = {}  # "spellings", "values" -> table, once begun
        self.update(triples)

    def _intern(self, term: Term) -> int:
        """The ID of term, which is given one if it has none yet."""
        i = self._ids.get(term)
        if i is None:
            i = self._ids[term] = len(self._terms)
            self._terms.append(term)
        return i

    def _add_keys(self, keys: Iterable[Key]) -> int:
        """Insert triples of IDs in order; returns how many were not already
        present. A write that adds one drops every built index."""
        triples = self._triples
        before = len(triples)
        triples.update(zip(keys, repeat(None)))
        added = len(triples) - before
        if added:
            self._indexes = {}
            self._tables = {}
        return added

    def _index(self, position: int) -> Index:
        """Each ID at `position` (0 subject, 1 predicate, 2 object) with
        the keys holding it there, in insertion order; built on first read.

        Every key is in exactly one bucket, so the mean bucket is
        `len(self) / len(index)`; an ID no triple holds there is absent.
        Read only: the graph changes through its writes.
        """
        index = self._indexes.get(position)
        if index is None:
            index = {}
            get = index.get
            for key in self._triples:
                i = key[position]
                bucket = get(i)
                if bucket is None:
                    index[i] = [key]
                else:
                    bucket.append(key)
            # published by one assignment, once complete
            self._indexes[position] = index
        return index

    def _spelt(self, ids: Iterable[int]) -> dict[int, str]:
        """The graph's table of canonical N-Triples spellings by term ID,
        holding at least `ids`: a term is spelt the first time its ID is
        asked for, and kept until a write drops the table."""
        spelt = self._tables.get("spellings")
        if spelt is None:
            spelt = self._tables["spellings"] = {}
        terms = self._terms
        for i in filterfalse(spelt.__contains__, ids):
            spelt[i] = terms[i].to_ntriples()
        return spelt

    def _valued(self, ids: Iterable[int]) -> dict[int, tuple[Optional[str], object]]:
        """The graph's table of FILTER values by term ID, holding at least
        `ids`: a literal whose datatype orders (`terms._DATATYPES`) has its
        kind, "numeric" or "date", and its value, any other term `(None,
        None)`. A term's value is derived the first time its ID is asked
        for, and kept until a write drops the table."""
        valued = self._tables.get("values")
        if valued is None:
            valued = self._tables["values"] = {}
        terms = self._terms
        for i in filterfalse(valued.__contains__, ids):
            term = terms[i]
            kind = value = None
            if isinstance(term, Literal):
                _, kind, derive = _DATATYPES.get(term.datatype.value, _UNORDERED)
                if kind is not None:
                    value = derive(term.lexical)
            valued[i] = (kind, value)
        return valued

    def _triple(self, key: Key) -> Triple:
        terms = self._terms
        s, p, o = key
        return Triple(terms[s], terms[p], terms[o])

    def _renamed(self, rename: Callable[[Term], Term]) -> Graph:
        """This graph with each term t replaced by rename(t). rename must
        be injective, so every ID, and every key, stays as it is."""
        out = Graph()
        out._terms = list(map(rename, self._terms))
        out._ids = {term: i for i, term in enumerate(out._terms)}
        out._triples = dict(self._triples)
        return out

    def add(self, t: Triple) -> bool:
        """Insert one triple; returns True iff it was not already present."""
        intern = self._intern
        return self._add_keys([(intern(t.s), intern(t.p), intern(t.o))]) == 1

    def update(self, other: Iterable[Triple]) -> None:
        if not isinstance(other, Graph):
            intern = self._intern
            self._add_keys((intern(t.s), intern(t.p), intern(t.o)) for t in other)
        elif not self._terms:
            # nothing to remap into: take other's ID space as it is
            self._terms = list(other._terms)
            self._ids = dict(other._ids)  # reuses the stored hashes
            self._triples = dict(other._triples)
            self._indexes = {}
            self._tables = {}
        else:
            remap = list(map(self._intern, other._terms))  # other's ID -> self's
            self._add_keys((remap[s], remap[p], remap[o]) for s, p, o in other._triples)

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
        wanted = []  # (position, ID) of each bound position
        for pos, term in enumerate((s, p, o)):
            if term is not None:
                i = self._ids.get(term)
                if i is None:
                    return []
                wanted.append((pos, i))
        candidates: Collection[Key] = self._triples
        if wanted:
            buckets = [self._index(pos).get(i, ()) for pos, i in wanted]
            at = min(range(len(buckets)), key=lambda k: len(buckets[k]))
            candidates = buckets[at]
            del wanted[at]  # every key in the bucket holds its ID
        triple = self._triple
        return [triple(k) for k in candidates if all(k[pos] == i for pos, i in wanted)]

    def __contains__(self, t: object) -> bool:
        if not isinstance(t, Triple):
            return False
        ids = self._ids
        try:
            key = (ids[t.s], ids[t.p], ids[t.o])
        except KeyError:
            return False
        return key in self._triples

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return map(self._triple, self._triples)

    def __eq__(self, other) -> bool:
        """Equal triple sets, whatever the two ID spaces."""
        if not isinstance(other, Graph) or len(self) != len(other):
            return False
        remap = list(map(self._ids.get, other._terms))  # None: a term self lacks
        triples = self._triples
        return all((remap[s], remap[p], remap[o]) in triples for s, p, o in other._triples)

    def __repr__(self):
        return f"<Graph with {len(self._triples)} triples>"


def merge(graphs: Iterable[Graph]) -> Graph:
    """Set-union of several graphs; insertion order never matters.

    The first graph's ID space is copied and each later one is remapped
    into it; no index is built until a reader asks for it. Union is
    idempotent, so blank node labels are taken at face value; callers
    merging documents whose explicit labels must stay distinct should
    relabel before parsing.
    """
    out = Graph()
    for g in graphs:
        out.update(g)
    return out
