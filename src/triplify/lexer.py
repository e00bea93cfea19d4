"""The term grammar of the Turtle, SPARQL and N-Triples readers.

One master regex splits either syntax into tokens; the parsers decide
which tokens their grammar allows. Term syntax follows the Turtle 1.1 and
SPARQL 1.1 terminals: IRIREF excludes space, `"`, `<`, `>` and the other
delimiters, so a `<` that does not open an IRI is the comparison operator.
Strings may be short or long, single or double quoted; escapes in strings
and `\\u`/`\\U` escapes in IRIs are decoded here.

Token kinds: iriref, pname, blank, var, word (bare words such as `a`,
`true` or `SELECT`), string, langtag (an `@tag` right after a string),
directive (any other `@word`), integer, decimal, double, eof, and for
punctuation and operators the symbol itself (`.`, `^^`, `<=`, ...).
Values are decoded: IRIs and strings unescaped, and `<>`, `_:`, `?` and
`@` dropped.

The terminals IRIREF, STRING, BLANK and LANGTAG are also all of N-Triples'
term syntax: `ntriples` builds its line pattern from them, so there too an
IRI may hold only `\\u`/`\\U` escapes and a blank node label may touch the
next term, as in Turtle. They are unrolled loops (`a*(?:b a*)*`), which
`re` matches several times faster than per-character alternations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .errors import ParseError, RelativeIriError, TriplifyError, UnknownPrefixError
from .terms import (
    _BLANK_LABEL,
    _IRI_SCHEME,
    _PN_CHARS,
    _PN_CHARS_BASE,
    _PN_CHARS_U,
    RDF_LANGSTRING,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    Iri,
    Literal,
    PrefixMap,
)

# Terminals shared by the Turtle, SPARQL and N-Triples readers.
IRIREF = r'<[^\x00-\x20<>"{}|^`\\]*(?:\\(?:u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8})[^\x00-\x20<>"{}|^`\\]*)*>'
STRING = r'"[^"\\\n\r]*(?:\\.[^"\\\n\r]*)*"'  # short, double-quoted
BLANK = "_:" + _BLANK_LABEL.pattern
LANGTAG = r"@[A-Za-z]+(?:-[A-Za-z0-9]+)*"

# RDF 1.1 Turtle PN_PREFIX and PN_LOCAL (SPARQL's are the same), with
# `%hh` escapes but not the `\`-escaped punctuation of PN_LOCAL_ESC.
_PLX = r"%[0-9A-Fa-f]{2}"
_PN_PREFIX = rf"[{_PN_CHARS_BASE}](?:[{_PN_CHARS}.]*[{_PN_CHARS}])?"
_PN_LOCAL = rf"(?:[{_PN_CHARS_U}:0-9]|{_PLX})(?:(?:[{_PN_CHARS}.:]|{_PLX})*(?:[{_PN_CHARS}:]|{_PLX}))?"

_UNESCAPE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.))", re.DOTALL)
_SHORT_ESCAPES = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}

_GRAMMAR = re.compile(
    rf"""
      (?P<ws>[ \t\r\n]+)
    | (?P<comment>\#[^\r\n]*)
    | (?P<iriref>{IRIREF})
    | (?P<string>
          \"\"\"(?:"{{0,2}}(?:[^"\\]|\\.))*"{{0,2}}\"\"\"
        | '''(?:'{{0,2}}(?:[^'\\]|\\.))*'{{0,2}}'''
        | {STRING}
        | '[^'\\\n\r]*(?:\\.[^'\\\n\r]*)*'
      )
    | (?P<unterminated>["'])
    | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
    | (?P<blank>{BLANK})
    | (?P<double>[+-]?(?:[0-9]+\.[0-9]*|\.?[0-9]+)[eE][+-]?[0-9]+)
    | (?P<decimal>[+-]?[0-9]*\.[0-9]+)
    | (?P<integer>[+-]?[0-9]+)
    | (?P<at>{LANGTAG})
    | (?P<symbol>\^\^|<=|>=|!=|[=<>.;,\[\](){{}}*])
    | (?P<pname>(?:{_PN_PREFIX})?:(?:{_PN_LOCAL})?)
    | (?P<word>[A-Za-z]\w*)
    | (?P<error>.)
    """,
    re.VERBOSE | re.DOTALL,
)

# The datatype of each numeric token, in Turtle 1.1 and SPARQL 1.1 alike:
# `1` is an xsd:integer, `1.5` an xsd:decimal and `1.0e6` an xsd:double.
# Each token's text is a valid lexical form of its datatype.
_NUMERIC = {"integer": XSD_INTEGER, "decimal": XSD_DECIMAL, "double": XSD_DOUBLE}


def normalize_line_ends(text: str) -> str:
    """A line-based document (N-Triples, the registry's TSV files) with
    its leading BOM dropped and each line end, LF, CRLF or a lone CR,
    made LF, so no line holds a raw CR; the text itself when it holds
    neither."""
    if text.startswith("\ufeff"):
        text = text[1:]
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def split_lines(text: str) -> list[str]:
    """The lines of a line-based document, ended as `normalize_line_ends` ends them."""
    return normalize_line_ends(text).split("\n")


def unescape(raw: str, line: int, column: int) -> str:
    """Decode an IRI or string token's escapes; a bad one is a ParseError there."""
    if "\\" not in raw:
        return raw

    def repl(m: re.Match) -> str:
        digits = m.group(1) or m.group(2)
        if digits is not None:
            cp = int(digits, 16)
            if cp > 0x10FFFF:  # only an 8-digit \U escape can get here
                raise ParseError(f"code point out of range: \\U{digits}", line, column)
            if 0xD800 <= cp <= 0xDFFF:  # not a Unicode scalar value: no UTF-8 form
                raise ParseError(f"surrogate code point: {m.group()}", line, column)
            return chr(cp)
        ch = m.group(3)
        try:
            return _SHORT_ESCAPES[ch]
        except KeyError:
            shown = ch if ch.isprintable() else f" followed by {ch!r}"
            raise ParseError(f"invalid escape: \\{shown}", line, column) from None

    return _UNESCAPE.sub(repl, raw)


@dataclass(slots=True)
class Token:
    kind: str
    value: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    """Split Turtle or SPARQL text into tokens, ending with an eof token."""
    if text.startswith("\ufeff"):
        text = text[1:]
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _GRAMMAR.finditer(text):
        kind = m.lastgroup
        raw = m.group()
        start = m.start()
        col = start - line_start + 1
        if kind == "ws" or kind == "comment":
            pass
        elif kind in ("pname", "word", "integer", "decimal", "double"):
            tokens.append(Token(kind, raw, line, col))
        elif kind == "symbol":
            tokens.append(Token(raw, raw, line, col))
        elif kind == "var":
            tokens.append(Token(kind, raw[1:], line, col))
        elif kind == "blank":
            tokens.append(Token(kind, raw[2:], line, col))
        elif kind == "iriref":
            tokens.append(Token(kind, unescape(raw[1:-1], line, col), line, col))
        elif kind == "string":
            q = 3 if raw.startswith(raw[0] * 3) else 1
            tokens.append(Token(kind, unescape(raw[q:-q], line, col), line, col))
        elif kind == "at":
            after_string = bool(tokens) and tokens[-1].kind == "string"
            tokens.append(Token("langtag" if after_string else "directive", raw[1:], line, col))
        elif kind == "unterminated":
            raise ParseError("unterminated string literal", line, col)
        else:
            raise ParseError(f"unexpected character {raw!r}", line, col)
        if "\n" in raw or "\r" in raw:  # whitespace or a long string
            # a line ends at CRLF, CR or LF; the text is not normalised, so a
            # raw CR in a long string stays in its value
            line += raw.count("\n") + raw.count("\r") - raw.count("\r\n")
            line_start = start + max(raw.rfind("\n"), raw.rfind("\r")) + 1
    tokens.append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens


# RFC 3986 appendix B: an IRI's scheme, authority, path, query and
# fragment (None for a part that is absent); a reference has no scheme.
_IRI_PARTS = re.compile(r"([^:/?#]+):(?://([^/?#]*))?([^?#]*)(?:\?([^#]*))?(?:#(.*))?", re.DOTALL)
_REFERENCE_PARTS = re.compile(r"(?://([^/?#]*))?([^?#]*)(?:\?([^#]*))?(?:#(.*))?", re.DOTALL)


def _remove_dot_segments(path: str) -> str:
    """The path with its `.` and `..` segments applied (RFC 3986 §5.2.4)."""
    out: list[str] = []
    while path:
        if path.startswith("../"):  # rule A
            path = path[3:]
        elif path.startswith("./"):
            path = path[2:]
        elif path.startswith("/./"):  # rule B
            path = path[2:]
        elif path == "/.":
            path = "/"
        elif path.startswith("/../"):  # rule C
            path = path[3:]
            if out:
                out.pop()
        elif path == "/..":
            path = "/"
            if out:
                out.pop()
        elif path in (".", ".."):  # rule D
            path = ""
        else:  # rule E: the first segment, with its leading "/" if any
            cut = path.find("/", 1)
            cut = len(path) if cut < 0 else cut
            out.append(path[:cut])
            path = path[cut:]
    return "".join(out)


def resolve_iri(reference: str, base: Optional[Iri]) -> Iri:
    """Resolve a possibly-relative IRI reference against a base.

    A relative reference is resolved by RFC 3986 §5.2.2, and the dot
    segments of its merged path are removed (§5.2.4): `../g` against
    `http://a/b/c/d;p?q` is `http://a/b/g`. An absolute IRI is taken as
    written. Raises RelativeIriError when no base is available.
    """
    if _IRI_SCHEME.match(reference):
        return Iri(reference)
    if base is None:
        raise RelativeIriError(f"relative IRI with no base: {reference!r}")
    authority, path, query, fragment = _REFERENCE_PARTS.fullmatch(reference).groups()
    scheme, base_authority, base_path, base_query, _ = _IRI_PARTS.fullmatch(base.value).groups()
    if authority is None:
        authority = base_authority
        if not path:
            path = base_path
            if query is None:
                query = base_query
        else:
            if not path.startswith("/"):  # merged with the base path (§5.2.3)
                if base_authority is not None and not base_path:
                    path = "/" + path
                else:
                    path = base_path[: base_path.rfind("/") + 1] + path
            path = _remove_dot_segments(path)
    else:
        path = _remove_dot_segments(path)
    text = scheme + ":"
    if authority is not None:
        text += "//" + authority
    text += path
    if query is not None:
        text += "?" + query
    if fragment is not None:
        text += "#" + fragment
    return Iri(text)


class TokenParser:
    """Token plumbing and term building shared by the Turtle and SPARQL parsers."""

    def __init__(self, text: str, base: Optional[Iri], prefixes: PrefixMap):
        self.tokens = tokenize(text)
        self.pos = 0
        self.base = base
        self.prefixes = prefixes

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos].kind == kind

    def expect(self, kind: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise self.error(f"expected {kind!r}, got {tok.value!r}", tok)
        return tok

    def error(self, message: str, tok: Token) -> ParseError:
        return ParseError(message, tok.line, tok.col)

    def build(self, tok: Token, factory, *args):
        """factory(*args), with a position-less TriplifyError re-raised as a
        ParseError at tok; unknown prefixes and relative IRIs keep their type
        and get tok's position as `line` and `column` and in the message."""
        try:
            return factory(*args)
        except (UnknownPrefixError, RelativeIriError) as exc:
            exc.line, exc.column = tok.line, tok.col
            exc.args = (f"{exc} (line {tok.line}, column {tok.col})",)
            raise
        except TriplifyError as exc:
            raise ParseError(str(exc), tok.line, tok.col) from None

    def iri(self, tok: Token, what: str = "IRI") -> Iri:
        if tok.kind == "iriref":
            return self.build(tok, resolve_iri, tok.value, self.base)
        if tok.kind == "pname":
            return self.build(tok, self.prefixes.expand, tok.value)
        raise self.error(f"expected {what}, got {tok.value!r}", tok)

    def literal(self, tok: Token, what: str) -> Literal:
        """The literal `tok` starts, consuming a `^^datatype` or `@lang` tail."""
        if tok.kind == "string":
            if self.at("^^"):
                self.next()
                datatype = self.iri(self.next(), "datatype IRI")
                return self.build(tok, Literal, tok.value, datatype)
            if self.at("langtag"):
                return self.build(tok, Literal, tok.value, RDF_LANGSTRING, self.next().value)
            return self.build(tok, Literal, tok.value)
        datatype = _NUMERIC.get(tok.kind)
        if datatype is not None:
            return Literal(tok.value, datatype)
        if tok.kind == "word" and tok.value in ("true", "false"):
            return Literal(tok.value, XSD_BOOLEAN)
        raise self.error(f"expected {what}, got {tok.value!r}", tok)
