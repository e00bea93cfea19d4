"""Seeded byte-level fuzzing of the Turtle, SPARQL, N-Triples and CSV
readers, and differential checks of the readers that share term syntax.

Every mutated document must either parse or raise a TriplifyError; any
other exception is a crash in the shared lexer or in one of the grammars.
N-Triples is a subset of Turtle, so both readers must agree on it, and
the N-Triples reader must read a mutated document as the reference that
matches every line with the full line pattern does.
"""

import random

import pytest

from triplify import (
    BlankNode,
    Graph,
    Iri,
    Triple,
    load_csv,
    load_shapes,
    parse_mapping,
    parse_ntriples,
    parse_query,
    parse_turtle,
    serialize_ntriples,
)
from triplify.errors import ParseError, TriplifyError
from triplify.registry import bundled_mapping_text

from genutil import (
    mutate,
    mutated_csv_texts,
    mutated_shapes_texts,
    random_graph,
    random_query_text,
)
from oracles import parse_every_line, read_outcome


def _survives(parse, text: str):
    """parse(text), or the TriplifyError it raised; anything else fails."""
    try:
        return parse(text)
    except TriplifyError as exc:
        return exc
    except Exception as exc:
        raise AssertionError(f"{type(exc).__name__}: {exc} on input {text!r}") from exc


def _turtle_graph(text: str) -> Graph:
    return parse_turtle(text)[0]


def test_mutated_mappings_parse_or_raise_triplify_errors():
    rng = random.Random(2107)
    seed = bundled_mapping_text().encode("utf-8")
    for _ in range(300):
        _survives(parse_turtle, mutate(rng, seed).decode("utf-8", errors="replace"))


def _mapping(text: str):
    doc, prefixes = parse_turtle(text)
    return parse_mapping(doc, prefixes)


def test_mutated_mappings_read_as_r2rml_or_raise_triplify_errors():
    rng = random.Random(6343)
    seed = bundled_mapping_text().encode("utf-8")
    for _ in range(1000):
        _survives(_mapping, mutate(rng, seed).decode("utf-8", errors="replace"))


def test_mutated_shapes_load_or_raise_triplify_errors():
    for text in mutated_shapes_texts():
        _survives(load_shapes, text)


def test_mutated_queries_parse_or_raise_triplify_errors():
    rng = random.Random(2482)
    for _ in range(2000):
        seed = random_query_text(rng).encode("utf-8")
        _survives(parse_query, mutate(rng, seed).decode("utf-8", errors="replace"))


def test_mutated_ntriples_parse_or_raise_positioned_parse_errors():
    rng = random.Random(3391)
    for _ in range(2000):
        seed = serialize_ntriples(random_graph(rng, 6)).encode("utf-8")
        text = mutate(rng, seed).decode("utf-8", errors="replace")
        out = _survives(parse_ntriples, text)
        if not isinstance(out, Graph):
            assert isinstance(out, ParseError), (repr(out), text)
            assert out.line >= 1 and out.column >= 1, (str(out), text)
        # the same graph, term order, triple order or error as a reader
        # that matches every line with the full line pattern
        assert read_outcome(parse_ntriples, text) == read_outcome(parse_every_line, text), text


def test_mutated_csv_loads_or_raises_triplify_errors():
    for text in mutated_csv_texts():
        _survives(load_csv, text)


def test_ntriples_and_turtle_readers_agree_on_ntriples():
    rng = random.Random(4408)
    for i in range(200):
        g = random_graph(rng, 30)
        text = serialize_ntriples(g)
        assert parse_ntriples(text) == _turtle_graph(text) == g, f"graph {i}"


# Where the N-Triples reader changed when it moved onto the shared terminals;
# in each case it now agrees with Turtle and the RDF 1.1 N-Triples grammar.

READERS = pytest.mark.parametrize("parse", [parse_ntriples, _turtle_graph])


@READERS
def test_iri_escape_other_than_u_is_rejected(parse):
    with pytest.raises(ParseError):
        parse("<http://e.org/a\\'b> <http://e.org/p> <http://e.org/o> .\n")


@READERS
def test_blank_label_needs_no_space_before_predicate(parse):
    g = parse("_:a<http://e.org/p> <http://e.org/o> .\n")
    assert g == Graph([Triple(BlankNode("a"), Iri("http://e.org/p"), Iri("http://e.org/o"))])


@READERS
def test_raw_carriage_return_in_string_is_rejected(parse):
    with pytest.raises(ParseError):
        parse('<http://e.org/s> <http://e.org/p> "a\rb" .\n')
