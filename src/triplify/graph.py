"""An in-memory triple set over integer term IDs, with set semantics.

A graph keeps each distinct term once, as its canonical N-Triples
spelling (a `str`), in `_terms`, and names it by its place there, its
ID; `_ids` maps a spelling back to its ID, so equal terms share one. A
spelling is what `serialize_ntriples` writes and what answers sort by,
and a `str` caches its hash and is not tracked by the garbage collector,
so a graph read back from N-Triples makes no term object. A triple is
stored as an `(s, p, o)` tuple of IDs, a key of the insertion-ordered
dict `_triples`. Each position (0 subject, 1 predicate, 2 object) has an
index from an ID to the keys holding it there, a tuple in insertion
order. An index is built from `_triples` the first time its position is
read (`_index`). A write that adds a triple drops every built index, and
the next read builds it again; a graph is loaded, then read, so no
workload pays for that. So no bucket is ever changed once published,
and a bucket is a tuple, not a list: it is smaller, and a tuple of
tuples of ints is untracked by the garbage collector once a collection
has seen it, so the full collections a query's answer rows set off do
not walk every bucket of the graph.

Two more tables, kept in their own slot, `_tables`, remember per term
ID what is derived from a spelling: `_made`, the term object it spells,
and `_valued`, the value a FILTER orders it by. They are filled an ID at
a time, as a reader first asks for it, so one query pays only for the
terms in its rows and the next reuses them. They follow the index rule:
a write that adds a triple drops them.

A batch of keys goes in by one bulk insert, `_add_keys`, one
`dict.update`. The converter inserts each predicate-object map's
triples that way, `add` inserts a batch of one, and `update` and
`merge` insert each other graph's.

`Triple`, `Iri`, `BlankNode` and `Literal` are the public boundary:
`add`, `update`, `match`, `in` and iteration take or give triples,
spell their terms on the way in and make them, through `_made`, on the
way out, and nowhere else; iteration and `match` make theirs into a
table of the call's own, so the graph keeps none of them. Inside the
package the readers hand in spellings and IDs (`_intern`,
`_intern_all`, `_add_keys`), and the validator, the query
engine, `stats` and `serialize_ntriples` read `_terms`, `_ids` and
`_index` directly. Iteration and `match` follow insertion order and
never sort: an RDF graph has no order of its own, so callers that print
sort.

Construction is single-writer. Once written, a graph can be read from
any number of threads; readers racing to the first read of a position
may each build its index, but each publishes it by one assignment, so
none sees a partial one. Readers racing to the same term ID of a
table each store an equal term or value.
"""

from __future__ import annotations

from itertools import chain, count, filterfalse, repeat
from typing import Callable, Collection, Iterable, Iterator, Optional

from .lexer import unescape
from .terms import (
    _DATATYPES,
    _UNORDERED,
    RDF_LANGSTRING,
    XSD_STRING,
    BlankNode,
    Iri,
    Literal,
    Term,
    Triple,
    literal_parts,
)

Key = tuple[int, int, int]  # (subject, predicate, object) IDs
Index = dict[int, tuple[Key, ...]]

_new, _set = object.__new__, object.__setattr__


def _term_of(spelling: str) -> Term:
    """The term a canonical N-Triples spelling spells. Its fields are set
    without the constructor's checks: the spelling passed them when it
    was interned, and they would cost more than the rest of making it."""
    if spelling[0] == "<":
        term = _new(Iri)
        _set(term, "value", spelling[1:-1])
        return term
    if spelling[0] == "_":
        term = _new(BlankNode)
        _set(term, "label", spelling[2:])
        return term
    body, tail = literal_parts(spelling)
    term = _new(Literal)
    # a canonical body escapes only what unescape decodes, and never fails
    _set(term, "lexical", unescape(body, 0, 0))
    if not tail:
        datatype, language = XSD_STRING, None
    elif tail[0] == "@":
        datatype, language = RDF_LANGSTRING, tail[1:]
    else:
        datatype, language = _term_of(tail[2:]), None
    _set(term, "datatype", datatype)
    _set(term, "language", language)
    return term


class Graph:
    __slots__ = ("_terms", "_ids", "_triples", "_indexes", "_tables")

    def __init__(self, triples: Iterable[Triple] = ()):
        self._terms: list[str] = []  # ID -> canonical N-Triples spelling
        self._ids: dict[str, int] = {}  # spelling -> ID
        self._triples: dict[Key, None] = {}
        self._indexes: dict[int, Index] = {}  # position -> index, once built
        self._tables: dict[str, dict] = {}  # "terms", "values" -> table, once begun
        self.update(triples)

    def _intern(self, spelling: str) -> int:
        """The ID of the term a canonical spelling spells, which is given
        one if it has none yet."""
        i = self._ids.get(spelling)
        if i is None:
            i = self._ids[spelling] = len(self._terms)
            self._terms.append(spelling)
        return i

    def _intern_all(self, spellings: list[str]) -> list[int]:
        """The IDs `_intern` gives spellings one at a time, in one bulk
        step: each spelling with no ID yet, in first-seen order, gets the
        next one."""
        ids = self._ids
        new = list(filterfalse(ids.__contains__, dict.fromkeys(spellings)))
        ids.update(zip(new, count(len(self._terms))))
        self._terms += new
        return list(map(ids.__getitem__, spellings))

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
        a tuple of the keys holding it there, in insertion order; built on
        first read.

        Every key is in exactly one bucket, so the mean bucket is
        `len(self) / len(index)`; an ID no triple holds there is absent.
        Read only: the graph changes through its writes.
        """
        index = self._indexes.get(position)
        if index is None:
            lists: dict[int, list[Key]] = {}
            get = lists.get
            for key in self._triples:
                i = key[position]
                bucket = get(i)
                if bucket is None:
                    lists[i] = [key]
                else:
                    bucket.append(key)
            index = dict(zip(lists, map(tuple, lists.values())))
            # published by one assignment, once complete
            self._indexes[position] = index
        return index

    def _made(self, ids: Iterable[int], made: Optional[dict[int, Term]] = None) -> dict[int, Term]:
        """The graph's table of term objects by term ID, holding at least
        `ids`: a term is made from its spelling the first time its ID is
        asked for, and kept until a write drops the table, so every
        answer or violation that holds an ID holds one object. Given a
        table `made` of the caller's own, fills that one instead."""
        if made is None:
            made = self._tables.get("terms")
            if made is None:
                made = self._tables["terms"] = {}
        terms = self._terms
        for i in filterfalse(made.__contains__, ids):
            made[i] = _term_of(terms[i])
        return made

    def _valued(self, ids: Iterable[int]) -> dict[int, tuple[Optional[str], object]]:
        """The graph's table of FILTER values by term ID, holding at least
        `ids`: a literal whose datatype orders (`terms._DATATYPES`) has its
        kind, "numeric" or "date", and its value, any other term `(None,
        None)`. A term's value is derived the first time its ID is asked
        for, from the term `_made` holds, and kept until a write drops the
        table."""
        valued = self._tables.get("values")
        if valued is None:
            valued = self._tables["values"] = {}
        missing = list(filterfalse(valued.__contains__, ids))
        made = self._made(missing)
        for i in missing:
            term = made[i]
            kind = value = None
            if isinstance(term, Literal):
                _, kind, derive = _DATATYPES.get(term.datatype.value, _UNORDERED)
                if kind is not None:
                    value = derive(term.lexical)
            valued[i] = (kind, value)
        return valued

    def _triples_of(self, keys: Collection[Key]) -> Iterator[Triple]:
        """The triple each key spells, its terms made into a table of the
        call's own, so equal terms within it are one object and the graph
        keeps none of them."""
        made = self._made(chain.from_iterable(keys), {})
        return (Triple(made[s], made[p], made[o]) for s, p, o in keys)

    def _renamed(self, rename: Callable[[str], str]) -> Graph:
        """This graph with each term's spelling t replaced by rename(t), a
        canonical spelling. rename must be injective, so every ID, and
        every key, stays as it is."""
        out = Graph()
        out._terms = list(map(rename, self._terms))
        out._ids = {spelling: i for i, spelling in enumerate(out._terms)}
        out._triples = dict(self._triples)
        return out

    def _key(self, t: Triple) -> Key:
        """The key of t, its terms spelt and interned."""
        intern = self._intern
        return intern(t.s.to_ntriples()), intern(t.p.to_ntriples()), intern(t.o.to_ntriples())

    def add(self, t: Triple) -> bool:
        """Insert one triple; returns True iff it was not already present."""
        return self._add_keys([self._key(t)]) == 1

    def update(self, other: Iterable[Triple]) -> None:
        if not isinstance(other, Graph):
            self._add_keys(map(self._key, other))
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
                i = self._ids.get(term.to_ntriples())
                if i is None:
                    return []
                wanted.append((pos, i))
        candidates: Collection[Key] = self._triples
        if wanted:
            buckets = [self._index(pos).get(i, ()) for pos, i in wanted]
            at = min(range(len(buckets)), key=lambda k: len(buckets[k]))
            candidates = buckets[at]
            del wanted[at]  # every key in the bucket holds its ID
        keys = [k for k in candidates if all(k[pos] == i for pos, i in wanted)]
        return list(self._triples_of(keys))

    def __contains__(self, t: object) -> bool:
        if not isinstance(t, Triple):
            return False
        ids = self._ids
        try:
            key = (ids[t.s.to_ntriples()], ids[t.p.to_ntriples()], ids[t.o.to_ntriples()])
        except KeyError:
            return False
        return key in self._triples

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return self._triples_of(self._triples)

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
