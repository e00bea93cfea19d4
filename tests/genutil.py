"""Seeded random generators shared by the property-style tests.

Everything takes an explicit random.Random so failures reproduce from the
seed printed by the calling test.
"""

from __future__ import annotations

import random
from importlib import resources

from triplify import (
    BlankNode,
    Graph,
    Iri,
    Literal,
    TableSource,
    Triple,
    bundled_mapping,
    convert,
    generate_synthetic,
    write_csv,
)
from triplify.r2rml import (
    MappingDocument,
    PredicateObjectMap,
    TermMap,
    TriplesMap,
    parse_template,
)
from triplify.registry import term_by_label
from triplify.terms import (
    PrefixMap,
    RDF_LANGSTRING,
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_DATE,
    XSD_INTEGER,
)

# Characters legal in IRIs under the grammar this package enforces,
# including ucschar samples (é, 日) and an astral emoji.
_IRI_CHARS = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    "-._~!$&'()*+,;=:/?#[]@%éŐψ日\U0001f642"
)
# Literal lexical pool: quotes, backslashes, newlines, tabs, controls,
# BMP and astral characters.
_LITERAL_CHARS = list("abcXYZ019 '\"\\\n\r\téŐψ漢\U0001f642") + [
    "\x07",
    "\x1f",
    "\x7f",
]
_BLANK_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789_"
_LANG_TAGS = ("en", "en-GB", "nl", "de-CH-1901")


def random_iri(rng: random.Random) -> Iri:
    scheme = rng.choice(("http", "https", "urn", "tag"))
    body = "".join(rng.choice(_IRI_CHARS) for _ in range(rng.randint(1, 24)))
    return Iri(f"{scheme}://{body}" if scheme.startswith("http") else f"{scheme}:{body}")


def random_blank(rng: random.Random) -> BlankNode:
    label = "".join(rng.choice(_BLANK_CHARS) for _ in range(rng.randint(1, 10)))
    return BlankNode(label)


def random_literal(rng: random.Random) -> Literal:
    choice = rng.randrange(6)
    if choice == 0:
        return Literal(str(rng.randint(-10**9, 10**9)), XSD_INTEGER)
    if choice == 1:
        return Literal(rng.choice(("true", "false", "1", "0")), XSD_BOOLEAN)
    if choice == 2:
        year, month = rng.randint(1900, 2100), rng.randint(1, 12)
        return Literal(f"{year:04d}-{month:02d}-{rng.randint(1, 28):02d}", XSD_DATE)
    text = "".join(rng.choice(_LITERAL_CHARS) for _ in range(rng.randint(0, 16)))
    if choice == 3:
        return Literal(text, RDF_LANGSTRING, rng.choice(_LANG_TAGS))
    if choice == 4:
        return Literal(text, random_iri(rng))
    return Literal(text)


def random_term(rng: random.Random):
    roll = rng.randrange(4)
    if roll == 0:
        return random_blank(rng)
    if roll <= 2:
        return random_iri(rng)
    return random_literal(rng)


def random_triple(rng: random.Random) -> Triple:
    s = random_blank(rng) if rng.random() < 0.25 else random_iri(rng)
    return Triple(s, random_iri(rng), random_term(rng))


def random_graph(rng: random.Random, max_triples: int) -> Graph:
    g = Graph()
    for _ in range(rng.randint(0, max_triples)):
        g.add(random_triple(rng))
    return g


def fuzz_graph(rng: random.Random, max_triples: int) -> Graph:
    """Like random_graph but samples a fresh per-graph term pool, so big
    graphs share terms (realistic joins) and generation stays fast."""
    subjects = [
        random_blank(rng) if rng.random() < 0.25 else random_iri(rng)
        for _ in range(rng.randint(1, 20))
    ]
    predicates = [random_iri(rng) for _ in range(rng.randint(1, 8))]
    objects = [random_term(rng) for _ in range(rng.randint(1, 30))]
    g = Graph()
    for _ in range(rng.randint(0, max_triples)):
        g.add(Triple(rng.choice(subjects), rng.choice(predicates), rng.choice(objects)))
    return g


# --- small-universe graphs and queries (brute-force friendly) -------------

QUERY_PREFIXES = PrefixMap({"ex": "http://ex.org/"})


def dirty_graph(n, seed):
    """generate_synthetic(n, seed) converted after NULL ages, NULL sexes
    and impossible dates are put in its cells, then given objects of the
    wrong kind."""
    tables = generate_synthetic(n, seed)
    rng = random.Random(seed)
    patients, treatments = tables["PATIENT"].rows, tables["TREATMENT"].rows
    dirt = max(1, n // 50)
    for row in rng.sample(patients, dirt):
        row["AGE"] = None
    for row in rng.sample(patients, dirt):
        row["SEX"] = None
    for row in rng.sample(treatments, dirt):
        row["RT_START_DATE"] = "2021-02-30"
    g, _ = convert(bundled_mapping(), tables)

    def some(cls):
        return rng.choice([t.s for t in g.match(None, RDF_TYPE, cls)])

    def iri(label):
        return term_by_label(label).iri

    neoplasm, treatment = iri("Neoplasm"), iri("has treatment")
    patient_class = Iri("http://purl.obolibrary.org/obo/NCIT_C16960")
    treatment_class = Iri("http://purl.obolibrary.org/obo/NCIT_C15313")
    typed_blank = BlankNode("typed")
    for t in (
        # a literal where a class is required
        Triple(some(patient_class), iri("has biological sex"), Literal("C16576")),
        # an IRI where a literal is required
        Triple(some(patient_class), iri("has age"), Iri("http://ex.org/age")),
        # an untyped IRI
        Triple(some(patient_class), iri("has disease"), Iri("http://ex.org/untyped")),
        # an IRI of another class
        Triple(some(treatment_class), iri("has radiotherapy modality"), some(neoplasm)),
        # blank nodes, one untyped and one of the required class
        Triple(some(patient_class), treatment, BlankNode("untyped")),
        Triple(some(patient_class), treatment, typed_blank),
        Triple(typed_blank, RDF_TYPE, treatment_class),
    ):
        g.add(t)
    return g


def pooled_graph(rng: random.Random, max_triples: int) -> Graph:
    """A graph drawn from a small term universe so joins actually happen."""
    nodes = [Iri(f"http://ex.org/n{i}") for i in range(5)]
    predicates = [Iri(f"http://ex.org/p{i}") for i in range(3)]
    objects = (
        nodes
        + [Literal(str(i), XSD_INTEGER) for i in (1, 5, 42)]
        + [Literal(s) for s in ("alpha", "beta")]
        + [Literal("2020-06-01", XSD_DATE)]
    )
    g = Graph()
    for _ in range(rng.randint(0, max_triples)):
        g.add(Triple(rng.choice(nodes), rng.choice(predicates), rng.choice(objects)))
    return g


def random_query_text(rng: random.Random) -> str:
    """A SELECT query of <=3 patterns, <=1 filter, over the pooled universe."""
    n_vars = rng.choice((1, 1, 2, 2, 3))
    var_names = ["a", "b", "c"][:n_vars]
    n_patterns = rng.randint(1, 3)
    constants = [f"ex:n{i}" for i in range(5)]
    predicates = [f"ex:p{i}" for i in range(3)]
    literals = ['"alpha"', '"beta"', "1", "5", "42", '"2020-06-01"^^xsd:date']

    patterns = []
    used: set[str] = set()
    for _ in range(n_patterns):
        s = rng.choice(["?" + rng.choice(var_names)] * 2 + constants)
        p = rng.choice(["?" + rng.choice(var_names)] + predicates * 3)
        o = rng.choice(["?" + rng.choice(var_names)] * 2 + constants + literals)
        for part in (s, p, o):
            if part.startswith("?"):
                used.add(part[1:])
        patterns.append(f"{s} {p} {o} .")
    if not used:  # keep the query projectable
        subject_var = "?" + var_names[0]
        patterns.append(f"{subject_var} {rng.choice(predicates)} ?z .")
        used.update({var_names[0], "z"})

    projected = sorted(used) if rng.random() < 0.5 else sorted(rng.sample(sorted(used), 1))
    filters = ""
    if rng.random() < 0.5:
        fv = rng.choice(sorted(used))
        op = rng.choice(("=", "!=", "<", "<=", ">", ">="))
        operand = rng.choice(("1", "5", "42")) if op not in ("=", "!=") else rng.choice(
            ("1", "42", '"alpha"')
        )
        filters = f" FILTER(?{fv} {op} {operand})"
    count = rng.random() < 0.2
    if count:
        head = "SELECT (COUNT(*) AS ?n)"
    else:
        head = "SELECT " + " ".join("?" + v for v in projected)
    return (
        "PREFIX ex: <http://ex.org/> "
        "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#> "
        f"{head} WHERE {{ {' '.join(patterns)}{filters} }}"
    )


# --- random tables + a fixed mapping (order/dedup properties) ---------------

TABLE_CELL_POOL = ("x", "y", "a b", "café", "", None, "1", "42", "value,with,commas")


def random_table(rng: random.Random, name: str = "T") -> TableSource:
    rows = []
    for i in range(rng.randint(0, 30)):
        rows.append(
            {
                "ID": rng.choice((str(i), str(i), str(rng.randint(0, 9)), None)),
                "A": rng.choice(TABLE_CELL_POOL),
                "B": rng.choice(TABLE_CELL_POOL),
            }
        )
    return TableSource(name, ("ID", "A", "B"), rows)


def simple_mapping() -> MappingDocument:
    """Two triples maps over table T, built programmatically."""
    first = TriplesMap(
        id=Iri("http://ex.org/map1"),
        logical_table="T",
        subject_map=TermMap(term_kind="IRI", template=parse_template("http://ex.org/r/{ID}")),
        subject_classes=[Iri("http://ex.org/R")],
        predicate_object_maps=[
            PredicateObjectMap(
                predicate=TermMap(term_kind="IRI", constant=Iri("http://ex.org/a")),
                object=TermMap(term_kind="Literal", column="A"),
            ),
        ],
    )
    second = TriplesMap(
        id=Iri("http://ex.org/map2"),
        logical_table="T",
        subject_map=TermMap(term_kind="IRI", template=parse_template("http://ex.org/r/{ID}")),
        predicate_object_maps=[
            PredicateObjectMap(
                predicate=TermMap(term_kind="IRI", constant=Iri("http://ex.org/b")),
                object=TermMap(
                    term_kind="IRI", template=parse_template("http://ex.org/v/{B}")
                ),
            ),
        ],
    )
    return MappingDocument(triples_maps=[first, second], prefixes=PrefixMap())


_QUOTE_FREE_CELLS = ("x", "42", "a b", "café", "日本", "\U0001f642", " ", "\t", "\ud800", "")
_LINE_ENDS = ("\n", "\r\n", "\r")


def random_quote_free_csv(rng: random.Random) -> str:
    """CSV text with no `"`: a header and rows of cells drawn from a pool
    with NULLs and non-ASCII, a lone surrogate among them, joined by LF,
    CRLF or a lone CR, sometimes with a BOM, blank lines, a row of the
    wrong width or no final line end."""
    width = rng.randint(1, 4)
    lines = [",".join(f"C{i}" for i in range(width))]
    for _ in range(rng.randint(0, 12)):
        roll = rng.random()
        cells = width if roll < 0.85 else rng.choice((0, width - 1, width + 1))
        lines.append(",".join(rng.choice(_QUOTE_FREE_CELLS) for _ in range(cells)))
    ends = [rng.choice(_LINE_ENDS) for _ in lines]
    if rng.random() < 0.3:
        ends[-1] = ""
    bom = "\ufeff" if rng.random() < 0.2 else ""
    return bom + "".join(map(str.__add__, lines, ends))


# --- byte-level mutation ----------------------------------------------------

# Bytes that change how the lexer splits text, plus a non-ASCII lead byte.
_INTERESTING = b"<>\"'\\@^_:?.;,[](){}#=!*+-eE0 \n\t\xc3"


def mutate(rng: random.Random, data: bytes) -> bytes:
    buf = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(buf) + 1)
        op = rng.randrange(4)
        byte = rng.choice(_INTERESTING) if rng.random() < 0.7 else rng.randrange(256)
        if op == 0 and i < len(buf):
            buf[i] = byte
        elif op == 1:
            buf.insert(i, byte)
        elif op == 2:
            del buf[i : i + rng.randint(1, 8)]
        else:
            buf[i:i] = buf[i : i + rng.randint(1, 16)]
    return bytes(buf)


def mutated_csv_texts():
    """600 seeded mutations of random tables written as CSV, each decoded."""
    rng = random.Random(5120)
    for _ in range(600):
        seed = write_csv(random_table(rng)).encode("utf-8")
        yield mutate(rng, seed).decode("utf-8", errors="replace")


def mutated_shapes_texts():
    """3000 seeded mutations of the bundled shapes.tsv, each decoded."""
    rng = random.Random(7781)
    seed = (resources.files("triplify") / "data" / "shapes.tsv").read_bytes()
    for _ in range(3000):
        yield mutate(rng, seed).decode("utf-8", errors="replace")
