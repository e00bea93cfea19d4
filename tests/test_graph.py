"""Graph set semantics, index coherence, and match ordering."""

import os
import random
import subprocess
import sys
import threading
from pathlib import Path

from triplify import (
    BlankNode,
    Graph,
    Iri,
    Literal,
    Triple,
    builtin_shapes,
    bundled_mapping,
    convert,
    execute,
    generate_synthetic,
    merge,
    parse_ntriples,
    parse_query,
    registry_prefixes,
    serialize_ntriples,
    validate_graph,
)
from triplify.terms import RDF_LANGSTRING, XSD_DATE, XSD_INTEGER, XSD_STRING

from genutil import pooled_graph, random_graph, random_triple

EX = "http://ex.org/"
NCIT = "http://purl.obolibrary.org/obo/NCIT_"


def _t(s, p, o):
    return Triple(Iri(EX + s), Iri(EX + p), Iri(EX + o))


def _scan(pool, s, p, o):
    """The plain filtered scan every index-backed match must equal."""
    return [
        t
        for t in pool
        if (s is None or t.s == s) and (p is None or t.p == p) and (o is None or t.o == o)
    ]


class TestInsert:
    def test_insert_reports_new(self):
        g = Graph()
        t = Triple(
            Iri(EX + "patient1"),
            Iri("http://www.cancerdata.org/roo/hasDisease"),
            Iri(NCIT + "C3262"),
        )
        assert g.add(t) is True
        assert len(g) == 1

    def test_reinsert_is_noop(self):
        g = Graph()
        t = _t("s", "p", "o")
        g.add(t)
        assert g.add(t) is False
        assert len(g) == 1

    def test_distinct_object_grows(self):
        g = Graph()
        g.add(_t("patient1", "hasDisease", "C3262"))
        assert g.add(_t("patient1", "hasDisease", "C4323")) is True
        assert len(g) == 2

    def test_insert_twice_equals_insert_once(self):
        rng = random.Random(7)
        triples = [random_triple(rng) for _ in range(50)]
        once = Graph(triples)
        twice = Graph(triples + triples)
        assert once == twice


class TestMatch:
    def test_full_scan(self):
        g = Graph([_t("a", "p", "x"), _t("b", "p", "y"), _t("c", "q", "z")])
        assert len(g.match()) == 3

    def test_by_subject(self):
        g = Graph([_t("a", "p", "x"), _t("a", "q", "y"), _t("b", "p", "x")])
        found = g.match(s=Iri(EX + "a"))
        assert len(found) == 2
        assert all(t.s == Iri(EX + "a") for t in found)

    def test_result_in_insertion_order(self):
        triples = [_t("b", "p", "x"), _t("a", "p", "x"), _t("a", "p", "w")]
        g = Graph(triples)
        assert g.match() == triples
        assert g.match(p=Iri(EX + "p")) == triples
        assert g.match(s=Iri(EX + "a")) == triples[1:]

    def test_order_independent_of_hash_seed(self):
        script = (
            "import random\n"
            "from genutil import random_graph\n"
            "g = random_graph(random.Random(5), 300)\n"
            "probe = next(iter(g))\n"
            "for t in list(g) + g.match() + g.match(p=probe.p) + g.match(o=probe.o):\n"
            "    print(t.s.to_ntriples(), t.p.to_ntriples(), t.o.to_ntriples())\n"
        )
        here = Path(__file__).parent
        path = os.pathsep.join([str(here.parent / "src"), str(here)])
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for seed in ("1", "2")
        ]
        assert outputs[0] and outputs[0] == outputs[1]

    def test_reinsert_keeps_one_copy_per_bucket(self):
        t = _t("s", "p", "o")
        g = Graph([t, _t("s", "q", "o"), t])
        g.add(t)
        g.update([t, t])
        for s, p, o in [(t.s, None, None), (None, t.p, None), (None, None, t.o), (t.s, t.p, t.o)]:
            assert g.match(s, p, o).count(t) == 1

    def test_object_can_be_literal(self):
        t = Triple(Iri(EX + "s"), Iri(EX + "p"), Literal("5", XSD_INTEGER))
        g = Graph([t])
        assert g.match(o=Literal("5", XSD_INTEGER)) == [t]
        assert g.match(o=Literal("5")) == []

    def test_index_coherence_against_linear_scan(self):
        # randomized graphs up to 10^4 triples: every index-backed match
        # must equal a plain filtered scan
        rng = random.Random(2024)
        for trial in range(8):
            g = random_graph(rng, 500 if trial < 7 else 10_000)
            pool = list(g)
            for _ in range(40):
                probe = rng.choice(pool) if pool else random_triple(rng)
                s = probe.s if rng.random() < 0.6 else None
                p = probe.p if rng.random() < 0.6 else None
                o = probe.o if rng.random() < 0.6 else None
                assert g.match(s, p, o) == _scan(pool, s, p, o), f"trial {trial}"

    def test_match_returns_a_copy(self):
        # a single bound position hands back its whole bucket; clearing or
        # extending that list must not reach the index
        g = Graph([_t("s", "p", "o1"), _t("s", "p", "o2"), _t("s2", "p", "o1")])
        pool = list(g)
        for s, p, o in ((Iri(EX + "s"), None, None), (None, Iri(EX + "p"), None), (None, None, None)):
            got = g.match(s, p, o)
            got.clear()
            got.append(_t("x", "y", "z"))
            assert g.match(s, p, o) == _scan(pool, s, p, o)
            assert g.match(None, None, Iri(EX + "o1")) == _scan(pool, None, None, Iri(EX + "o1"))


class TestIndexBuild:
    def test_index_holds_each_key_once_per_position(self):
        # the planner, the validator and stats read buckets and their sizes
        # through `_index`; each must equal a scan, also after writes that
        # follow the first read
        rng = random.Random(7)
        g = pooled_graph(rng, 60)
        g._index(0)
        g.update(pooled_graph(rng, 60))
        g.add(random_triple(rng))
        pool = list(g)
        made = g._made(range(len(g._terms)))
        for pos in range(3):
            index = g._index(pos)
            assert sum(len(bucket) for bucket in index.values()) == len(g)
            for i, bucket in index.items():
                # a bucket never changes once built, so it is a tuple
                assert type(bucket) is tuple
                bound = [made[i] if k == pos else None for k in range(3)]
                assert list(g._triples_of(bucket)) == _scan(pool, *bound)
        literal = g._ids[next(t.o for t in pool if isinstance(t.o, Literal)).to_ntriples()]
        assert literal not in g._index(0) and literal not in g._index(1)

    def test_bulk_inserts_into_built_indexes_leave_them_as_built_afresh(self):
        rng = random.Random(8)
        g = pooled_graph(rng, 60)
        for pos in range(3):
            g._index(pos)
        g.update(pooled_graph(rng, 60))  # a graph with IDs of its own
        batch = list(pooled_graph(rng, 30))
        g.update(batch + batch + list(g)[:5])  # triples, repeated in the batch and already in g
        g.update(g)
        fresh = merge([g])  # the same IDs, indexes built from the triples as they stand
        for pos in range(3):
            assert g._index(pos) == fresh._index(pos), pos

    def test_racing_first_reads_see_whole_indexes(self):
        # eight readers start together on a graph no one has read yet, each
        # on one position in turn, so they race to build every index; each
        # must see them complete
        rng = random.Random(31)
        subjects = [Iri(f"{EX}s{i}") for i in range(200)]
        predicates = [Iri(f"{EX}p{i}") for i in range(10)]
        objects = [Iri(f"{EX}o{i}") for i in range(150)] + [Literal(str(i)) for i in range(150)]
        triples = [
            Triple(rng.choice(subjects), rng.choice(predicates), rng.choice(objects))
            for _ in range(10_000)
        ]
        pool = list(Graph(triples))
        # for each position, probes that bind only it
        single = [
            [
                tuple(term if k == pos else None for k, term in enumerate((t.s, t.p, t.o)))
                for t in rng.sample(pool, 10)
            ]
            for pos in range(3)
        ]
        pairs = [(t.s, t.p, None) for t in rng.sample(pool, 10)]
        probes = [probe for group in single for probe in group] + pairs
        expected = {probe: _scan(pool, *probe) for probe in probes}
        readers = 8
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(3):
                g = Graph(triples)
                start = threading.Barrier(readers)
                results = [None] * readers

                def read(i):
                    start.wait(timeout=30)
                    first = i % 3  # the position this reader reads first
                    order = [p for k in range(3) for p in single[(first + k) % 3]] + pairs
                    results[i] = {probe: g.match(*probe) for probe in order}

                threads = [threading.Thread(target=read, args=(i,)) for i in range(readers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                for i, got in enumerate(results):
                    assert got == expected, f"trial {trial}, reader {i}"
                fresh = Graph(triples)  # the same IDs, indexes built by one reader
                for pos in range(3):
                    assert g._index(pos) == fresh._index(pos), f"trial {trial}, position {pos}"
        finally:
            sys.setswitchinterval(old_interval)

    def test_writes_after_first_read_keep_match_coherent(self):
        rng = random.Random(32)
        first, later = list(pooled_graph(rng, 150)), list(pooled_graph(rng, 150))
        g = Graph(first)
        g.match(p=first[0].p)  # builds the indexes
        for t in later[: len(later) // 2]:
            g.add(t)
        g.update(later[len(later) // 2 :] + first[:5])
        pool = list(g)
        assert pool == list(dict.fromkeys(first + later))
        for probe in rng.sample(pool, 20):
            for s, p, o in [
                (probe.s, None, None),
                (None, probe.p, None),
                (None, None, probe.o),
                (probe.s, probe.p, None),
                (None, probe.p, probe.o),
                (probe.s, probe.p, probe.o),
            ]:
                assert g.match(s, p, o) == _scan(pool, s, p, o)


class TestMerge:
    def test_merge_commutes(self):
        rng = random.Random(99)
        g1 = random_graph(rng, 120)
        g2 = random_graph(rng, 120)
        assert merge([g1, g2]) == merge([g2, g1])

    def test_merge_idempotent(self):
        rng = random.Random(100)
        g = random_graph(rng, 80)
        assert merge([g, g]) == g

    def test_merge_keeps_first_insertion_order(self):
        rng = random.Random(101)
        g1 = random_graph(rng, 120)
        g2 = Graph(list(random_graph(rng, 120)) + list(g1)[::3])
        merged = merge([g1, g2])
        expected = list(dict.fromkeys(list(g1) + list(g2)))
        assert list(merged) == expected
        assert merged.match() == expected
        assert list(merge([g2, g2])) == list(g2)

    def test_shared_triples_counted_once(self):
        shared = _t("x", "p", "y")
        g1 = Graph([shared, _t("a", "p", "b")])
        g2 = Graph([shared, _t("c", "p", "d")])
        assert len(merge([g1, g2])) == 3


class TestIndexLaziness:
    """Each position's index is built the first time that position is read."""

    @staticmethod
    def _parsed_registry() -> Graph:
        g, _ = convert(bundled_mapping(), generate_synthetic(20, 1))
        return parse_ntriples(serialize_ntriples(g))

    def test_validate_builds_only_the_predicate_index(self):
        g = self._parsed_registry()
        assert g._indexes == {}
        validate_graph(g, builtin_shapes())
        assert set(g._indexes) == {1}

    def test_match_builds_the_indexes_of_its_bound_positions(self):
        g = self._parsed_registry()
        probe = next(iter(g))
        g.match()
        assert g._indexes == {}
        g.match(o=probe.o)
        assert set(g._indexes) == {2}
        g.match(s=probe.s, p=probe.p)
        assert set(g._indexes) == {0, 1, 2}

    def test_merge_builds_no_index(self):
        g = self._parsed_registry()
        g._index(0)
        other = Graph(list(g)[:10])
        assert merge([g, other])._indexes == {}
        assert merge([other, g])._indexes == {}

    @staticmethod
    def _indexed(rng: random.Random) -> Graph:
        g = pooled_graph(rng, 80)
        for pos in range(3):
            g._index(pos)
        return g

    def test_a_write_that_adds_a_triple_drops_the_built_indexes(self):
        rng = random.Random(41)
        writes = [
            lambda g, t: g.add(t),
            lambda g, t: g.update([t]),
            lambda g, t: g.update(Graph([t])),
            lambda g, t: g.update(list(g)[:3] + [t]),
        ]
        for write in writes:
            g = self._indexed(rng)
            t = Triple(Iri("http://fresh.org/s"), Iri("http://fresh.org/p"), Literal("new"))
            write(g, t)
            assert g._indexes == {}
            pool = list(g)
            for probe in rng.sample(pool, 10) + [t]:
                for s, p, o in [(probe.s, None, None), (None, probe.p, None), (None, None, probe.o)]:
                    assert g.match(s, p, o) == _scan(pool, s, p, o)

    def test_a_write_that_adds_nothing_keeps_the_built_indexes(self):
        rng = random.Random(42)
        g = self._indexed(rng)
        built = dict(g._indexes)
        pool = list(g)
        assert not g.add(pool[0])
        g.update(pool[::2])
        g.update(Graph(pool[1::3]))
        g.update(g)
        g.update([])
        assert g._indexes.keys() == built.keys()
        assert all(g._indexes[pos] is built[pos] for pos in range(3))
        assert list(g) == pool
        for probe in rng.sample(pool, 10):
            for s, p, o in [(probe.s, None, None), (None, probe.p, None), (None, None, probe.o)]:
                assert g.match(s, p, o) == _scan(pool, s, p, o)

    def test_a_query_reads_only_the_indexes_it_plans_with(self):
        g = self._parsed_registry()
        q = parse_query("SELECT ?p WHERE { ?p a ncit:C16960 . }", registry_prefixes())
        assert len(execute(g, q).rows) == 20
        assert set(g._indexes) == {1, 2}  # rdf:type's bucket and the class's
        # the cheapest step is a subject the graph lacks: it reads no subject index
        g = self._parsed_registry()
        q = parse_query("SELECT ?c WHERE { <http://e.org/absent> a ?c . }")
        assert execute(g, q).rows == []
        assert set(g._indexes) == {1}  # rdf:type's bucket size, for the estimate


class TestDerivedTables:
    """The made-term and value tables are filled an ID at a time, as asked
    for, and follow the index rule: kept by a write that adds nothing,
    dropped by one that adds."""

    @staticmethod
    def _tabled(rng: random.Random) -> Graph:
        g = pooled_graph(rng, 80)
        g._made(range(0, len(g._terms), 2))
        g._valued(range(0, len(g._terms), 3))
        return g

    def test_iteration_and_match_keep_no_term_on_the_graph(self):
        g = pooled_graph(random.Random(46), 80)
        pool = list(g)
        assert g.match() == pool and g.match(o=pool[0].o)
        assert g._tables == {}
        # within one call, equal terms are one object
        first = {}
        for t in g:
            for term in (t.s, t.p, t.o):
                assert first.setdefault(term, term) is term

    def test_terms_are_made_for_the_ids_asked_for(self):
        rng = random.Random(43)
        triples = [random_triple(rng) for _ in range(80)]
        g = Graph(triples)
        # the term each spelling was made from: escapes, tags and datatypes
        spelt = {t.to_ntriples(): t for triple in triples for t in (triple.s, triple.p, triple.o)}
        made = g._made([3, 0, 3])
        assert made == {i: spelt[g._terms[i]] for i in (0, 3)}
        assert g._made([3, 5]) is made
        assert made == {i: spelt[g._terms[i]] for i in (0, 3, 5)}
        assert set(g._tables) == {"terms"}
        assert g._made(range(len(g._terms))) == {i: spelt[t] for i, t in enumerate(g._terms)}

    def test_values_give_each_term_its_kind_and_value(self):
        g = Graph(
            [
                _t("s", "p", "o"),
                Triple(Iri(EX + "s"), Iri(EX + "p"), Literal("05", XSD_INTEGER)),
                Triple(Iri(EX + "s"), Iri(EX + "p"), Literal("1970-01-02", XSD_DATE)),
                Triple(Iri(EX + "s"), Iri(EX + "p"), Literal("5")),
            ]
        )
        ids = g._ids
        terms = [Iri(EX + "o"), Literal("05", XSD_INTEGER), Literal("1970-01-02", XSD_DATE), Literal("5")]
        asked = [ids[t.to_ntriples()] for t in terms]
        assert g._valued(asked) == dict(zip(asked, [(None, None), ("numeric", 5), ("date", 1440), (None, None)]))
        # the values are read from the terms made for them
        assert set(g._tables) == {"terms", "values"}

    def test_a_write_that_adds_a_triple_drops_the_tables(self):
        rng = random.Random(44)
        writes = [
            lambda g, t: g.add(t),
            lambda g, t: g.update([t]),
            lambda g, t: g.update(Graph([t])),
        ]
        for write in writes:
            g = self._tabled(rng)
            write(g, Triple(Iri("http://fresh.org/s"), Iri("http://fresh.org/p"), Literal("new")))
            assert g._tables == {}

    def test_a_write_that_adds_nothing_keeps_the_tables(self):
        g = self._tabled(random.Random(45))
        made, valued = g._tables["terms"], g._tables["values"]
        pool = list(g)
        assert not g.add(pool[0])
        g.update(pool[::2])
        g.update(Graph(pool[1::3]))
        g.update(g)
        g.update([])
        assert g._made([1]) is made
        assert g._valued([1]) is valued


# --- against a plain model -----------------------------------------------------


def _universe():
    """A small term universe, made afresh on every call: the graph meets
    equal terms held as distinct objects."""
    nodes = [Iri(f"{EX}n{i}") for i in range(4)] + [BlankNode(f"b{i}") for i in range(2)]
    predicates = [Iri(f"{EX}p{i}") for i in range(3)]
    literals = [
        Literal("alpha"),
        Literal("alpha", RDF_LANGSTRING, "en"),
        Literal("5", XSD_INTEGER),
        Literal("2020-06-01", XSD_DATE),
    ]
    return nodes, predicates, nodes + literals


def _model_triple(rng: random.Random) -> Triple:
    nodes, predicates, objects = _universe()
    return Triple(rng.choice(nodes), rng.choice(predicates), rng.choice(objects))


def _escaped(text: str, rng: random.Random) -> str:
    """text with one character, at random, written as a \\u or \\U escape."""
    k = rng.randrange(len(text))
    code = ord(text[k])
    escape = f"\\u{code:04X}" if rng.random() < 0.5 else f"\\U{code:08X}"
    return text[:k] + escape + text[k + 1 :]


def _spelling(term, rng: random.Random) -> str:
    """One of the N-Triples spellings of term, at random."""
    if isinstance(term, BlankNode):
        return term.to_ntriples()
    if isinstance(term, Iri):
        return f"<{_escaped(term.value, rng) if rng.random() < 0.5 else term.value}>"
    body = f'"{_escaped(term.lexical, rng) if rng.random() < 0.5 else term.lexical}"'
    if term.language is not None:
        return f"{body}@{term.language}"
    if term.datatype == XSD_STRING and rng.random() < 0.5:
        return body
    return f"{body}^^{_spelling(term.datatype, rng)}"


def _parsed(triples: list, rng: random.Random) -> Graph:
    """The triples read back from N-Triples in varied spellings, some
    lines repeated later in another spelling."""
    lines = triples + rng.sample(triples, rng.randint(0, len(triples)))
    text = "".join(
        " ".join(_spelling(term, rng) for term in (t.s, t.p, t.o)) + " .\n" for t in lines
    )
    return parse_ntriples(text)


class TestAgainstAModel:
    """Random sequences of writes and reads give what a plain insertion-
    ordered dict of triples and a linear scan give."""

    def test_random_operation_sequences(self):
        rng = random.Random(2026)
        for trial in range(60):
            g: Graph = Graph()
            model: dict = {}
            for step in range(rng.randint(1, 30)):
                where = f"trial {trial}, step {step}"
                op = rng.randrange(7)
                batch = [_model_triple(rng) for _ in range(rng.randint(0, 6))]
                if op == 0:
                    t = _model_triple(rng)
                    assert g.add(t) is (t not in model), where
                    model[t] = None
                elif op == 1:  # from an iterable
                    g.update(iter(batch))
                    model.update(dict.fromkeys(batch))
                elif op == 2:  # from a graph with its own IDs, maybe parsed
                    g.update(Graph(batch) if rng.random() < 0.5 else _parsed(batch, rng))
                    model.update(dict.fromkeys(batch))
                elif op == 3:
                    g.update(g)
                elif op == 4:
                    probe = _model_triple(rng)
                    terms = (probe.s, probe.p, probe.o)
                    for mask in range(8):
                        bound = [term if mask >> k & 1 else None for k, term in enumerate(terms)]
                        assert g.match(*bound) == _scan(model, *bound), (where, mask)
                elif op == 5:
                    other = _parsed(batch, rng)
                    want = list(dict.fromkeys([*model, *batch]))
                    assert list(merge([g, other])) == want, where
                    assert list(merge([other, g])) == list(dict.fromkeys([*batch, *model])), where
                    assert merge([other, g]) == merge([g, other]), where
                else:
                    t = _model_triple(rng)
                    assert (t in g) is (t in model), where
                assert len(g) == len(model), where
                assert list(g) == list(model), where
                assert g == Graph(reversed(list(model))), where
                assert g == _parsed(list(model), rng), where
                outside = _model_triple(rng)
                if model and outside not in model:
                    assert g != Graph(list(model)[1:] + [outside]), where
