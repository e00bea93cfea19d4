"""Graph set semantics, index coherence, and match ordering."""

import os
import random
import subprocess
import sys
import threading
from pathlib import Path

from triplify import Graph, Iri, Literal, Triple, merge
from triplify.terms import XSD_INTEGER

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
            "    print(t.to_line())\n"
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

    def test_buckets_hold_each_triple_once_per_position(self):
        # the planner reads bucket sizes and buckets through this view; it
        # must equal a scan, also after writes that follow the first read
        rng = random.Random(7)
        g = pooled_graph(rng, 60)
        g.buckets(0)
        g.update(pooled_graph(rng, 60))
        g.add(random_triple(rng))
        pool = list(g)
        for pos in range(3):
            view = g.buckets(pos)
            assert sum(len(bucket) for bucket in view.values()) == len(g)
            for term, bucket in view.items():
                bound = [term if i == pos else None for i in range(3)]
                assert list(bucket) == _scan(pool, *bound)
        assert Iri(EX + "absent") not in g.buckets(1)


class TestIndexBuild:
    def test_racing_first_reads_see_whole_indexes(self):
        # eight readers start together on a graph no one has read yet, so
        # they race to build its indexes; each must see them complete
        rng = random.Random(31)
        subjects = [Iri(f"{EX}s{i}") for i in range(200)]
        predicates = [Iri(f"{EX}p{i}") for i in range(10)]
        objects = [Iri(f"{EX}o{i}") for i in range(150)] + [Literal(str(i)) for i in range(150)]
        triples = [
            Triple(rng.choice(subjects), rng.choice(predicates), rng.choice(objects))
            for _ in range(10_000)
        ]
        pool = list(Graph(triples))
        probes = [
            (t.s, None, None) if k == 0 else (None, t.p, None) if k == 1 else (None, None, t.o)
            for k, t in enumerate(rng.sample(pool, 30))
        ]
        probes += [(t.s, t.p, None) for t in rng.sample(pool, 10)]
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
                    order = probes[i:] + probes[:i]
                    results[i] = {probe: g.match(*probe) for probe in order}

                threads = [threading.Thread(target=read, args=(i,)) for i in range(readers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                for i, got in enumerate(results):
                    assert got == expected, f"trial {trial}, reader {i}"
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
