"""Seeded byte-level fuzzing of the Turtle and SPARQL readers.

Every mutated document must either parse or raise a TriplifyError; any
other exception is a crash in the shared lexer or in one of the grammars.
"""

import random

from triplify import parse_query, parse_turtle
from triplify.errors import TriplifyError
from triplify.registry import bundled_mapping_text

from genutil import random_query_text

# Bytes that change how the lexer splits text, plus a non-ASCII lead byte.
_INTERESTING = b"<>\"'\\@^_:?.;,[](){}#=!*+-eE0 \n\t\xc3"


def _mutate(rng: random.Random, data: bytes) -> bytes:
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


def _survives(parse, text: str) -> None:
    try:
        parse(text)
    except TriplifyError:
        pass
    except Exception as exc:
        raise AssertionError(f"{type(exc).__name__}: {exc} on input {text!r}") from exc


def test_mutated_mappings_parse_or_raise_triplify_errors():
    rng = random.Random(2107)
    seed = bundled_mapping_text().encode("utf-8")
    for _ in range(300):
        _survives(parse_turtle, _mutate(rng, seed).decode("utf-8", errors="replace"))


def test_mutated_queries_parse_or_raise_triplify_errors():
    rng = random.Random(2482)
    for _ in range(2000):
        seed = random_query_text(rng).encode("utf-8")
        _survives(parse_query, _mutate(rng, seed).decode("utf-8", errors="replace"))
