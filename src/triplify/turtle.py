"""A Turtle reader covering the subset R2RML documents use.

Supported: @prefix / @base, the `a` keyword, predicate lists with `;`,
object lists with `,`, anonymous blank nodes `[ ... ]` (nested), labeled
blank nodes `_:x`, IRIs in angle brackets, prefixed names, string literals
(short and long, single and double quoted), numeric and boolean literals,
`^^` datatypes, `@lang` tags, and comments.

Collections `( ... )` and other Turtle constructs outside this subset are
rejected with a ParseError, and so are anonymous blank nodes nested more
than MAX_NESTING levels deep. Anonymous blank nodes get fresh labels
`b0, b1, ...` per parsed document, skipping any label the document uses
explicitly; labeled blank nodes keep their labels, so a document that is
also valid N-Triples parses to exactly the same triple set here.

Term syntax (IRIs, prefixed names, strings, numbers, language tags, blank
node labels) lives in `triplify.lexer`, shared with the SPARQL reader;
this module holds only the Turtle grammar.
"""

from __future__ import annotations

from typing import Optional

from .graph import Graph
from .lexer import TokenParser, resolve_iri
from .terms import RDF_TYPE, BlankNode, Iri, PrefixMap, Term, Triple

__all__ = ["parse_turtle", "resolve_iri"]

# The deepest nesting of anonymous blank nodes `[ ... ]` a document may
# have; each level is a few frames of the recursive descent, so this stays
# far inside the interpreter's recursion limit.
MAX_NESTING = 64


class _Parser(TokenParser):
    def __init__(self, text: str, base: Optional[Iri]):
        super().__init__(text, base, PrefixMap())
        self.graph = Graph()
        self.used_labels = {tok.value for tok in self.tokens if tok.kind == "blank"}
        self.counter = 0
        self.depth = 0  # anonymous blank nodes open around the current token

    def fresh_blank(self) -> BlankNode:
        while True:
            label = f"b{self.counter}"
            self.counter += 1
            if label not in self.used_labels:
                return BlankNode(label)

    # grammar

    def parse(self) -> tuple[Graph, PrefixMap]:
        while not self.at("eof"):
            tok = self.peek()
            if tok.kind != "directive":
                self.triples()
            elif tok.value in ("prefix", "base"):
                self.next()
                self.directive(tok.value)
            else:
                raise self.error(f"unknown directive: @{tok.value}", tok)
            self.expect(".")
        return self.graph, self.prefixes

    def directive(self, name: str) -> None:
        if name == "base":
            self.base = self.iri(self.expect("iriref"))
            return
        prefix = self.next()
        if prefix.kind != "pname" or not prefix.value.endswith(":"):
            raise self.error("expected prefix name ending in ':'", prefix)
        self.prefixes.bind(prefix.value[:-1], self.iri(self.expect("iriref")))

    def triples(self) -> None:
        if self.at("["):
            subject = self.blank_node_property_list()
            if not self.at("."):
                self.predicate_object_list(subject)
            return
        tok = self.next()
        if tok.kind == "blank":
            subject = BlankNode(tok.value)
        elif tok.kind == "(":
            raise self.error("collections are not supported", tok)
        else:
            subject = self.iri(tok, "subject")
        self.predicate_object_list(subject)

    def predicate_object_list(self, subject: Term) -> None:
        while True:
            predicate = self.verb()
            self.object_list(subject, predicate)
            if not self.at(";"):
                return
            # Trailing semicolons are legal: `;` may be followed by
            # the end of the block instead of another verb.
            while self.at(";"):
                self.next()
            if self.peek().kind in (".", "]", "eof"):
                return

    def verb(self) -> Iri:
        tok = self.next()
        if tok.kind == "word" and tok.value == "a":
            return RDF_TYPE
        return self.iri(tok, "predicate")

    def object_list(self, subject: Term, predicate: Iri) -> None:
        self.graph.add(Triple(subject, predicate, self.object()))
        while self.at(","):
            self.next()
            self.graph.add(Triple(subject, predicate, self.object()))

    def object(self) -> Term:
        if self.at("["):
            return self.blank_node_property_list()
        tok = self.next()
        if tok.kind in ("iriref", "pname"):
            return self.iri(tok)
        if tok.kind == "blank":
            return BlankNode(tok.value)
        if tok.kind == "(":
            raise self.error("collections are not supported", tok)
        return self.literal(tok, "object")

    def blank_node_property_list(self) -> BlankNode:
        open_tok = self.expect("[")
        if self.depth == MAX_NESTING:
            raise self.error(f"blank nodes nested deeper than {MAX_NESTING} levels", open_tok)
        node = self.fresh_blank()
        self.depth += 1
        if not self.at("]"):
            self.predicate_object_list(node)
        self.depth -= 1
        closing = self.next()
        if closing.kind != "]":
            raise self.error(
                f"expected ']' to close blank node opened at line {open_tok.line}", closing
            )
        return node


def parse_turtle(text: str, base: Optional[Iri] = None) -> tuple[Graph, PrefixMap]:
    """Parse a Turtle document; returns the graph and its prefix map."""
    return _Parser(text, base).parse()
