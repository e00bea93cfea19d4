"""RDF terms: IRIs, blank nodes, literals, triples, and prefix maps.

Terms are immutable value objects, valid by construction:

* every Iri is an absolute IRI free of forbidden characters,
* every Literal's lexical form matches its datatype (for the datatypes
  in `_DATATYPES`: integer, decimal, double, date, boolean),
* every Triple obeys the RDF position rules (no literal subjects,
  IRI predicates only).

`_DATATYPES` is also where `query` finds which values a FILTER orders,
and how. All positions reported in errors are 1-based.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from operator import methodcaller
from typing import Callable, Optional, Union

from .errors import (
    IllegalCharacterError,
    LexicalFormMismatchError,
    RelativeIriError,
    TriplifyError,
    UnknownPrefixError,
)

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"

# Characters never allowed in an IRI: controls, space, the brackets and
# quoting characters the IRI grammar reserves for delimiters, and lone
# surrogates, which no UTF-8 output can hold.
_IRI_ILLEGAL = re.compile(r'[\x00-\x20<>"{}|^`\\\x7f\ud800-\udfff]')
_IRI_SCHEME = re.compile(r"[A-Za-z][A-Za-z0-9+.\-]*:")
# An IRI as its own spelling, by the rule `check_iri` states: a scheme,
# then no character `_IRI_ILLEGAL` holds, so no `\` and no escape.
IRI_SPELLING = rf"<{_IRI_SCHEME.pattern}[^{_IRI_ILLEGAL.pattern[1:]}*>"
_OWN_IRI = re.compile(IRI_SPELLING)

# RDF 1.1 Turtle BLANK_NODE_LABEL: PN_CHARS_U or a digit, then PN_CHARS and
# dots, not ending in a dot. Ranges stop short of the surrogates.
_PN_CHARS_BASE = (
    r"A-Za-z\u00C0-\u00D6\u00D8-\u00F6\u00F8-\u02FF\u0370-\u037D\u037F-\u1FFF"
    r"\u200C\u200D\u2070-\u218F\u2C00-\u2FEF\u3001-\uD7FF\uF900-\uFDCF\uFDF0-\uFFFD"
    r"\U00010000-\U000EFFFF"
)
_PN_CHARS_U = _PN_CHARS_BASE + "_"
_PN_CHARS = _PN_CHARS_U + r"\-0-9\u00B7\u0300-\u036F\u203F\u2040"
_BLANK_LABEL = re.compile(rf"[{_PN_CHARS_U}0-9](?:[{_PN_CHARS}.]*[{_PN_CHARS}])?")

_INTEGER_LEXICAL = re.compile(r"[+-]?[0-9]+")
_DECIMAL_LEXICAL = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)")
_DOUBLE_LEXICAL = re.compile(
    r"(?:[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|[+-]?INF|NaN)"
)
_BOOLEAN_LEXICAL = re.compile(r"true|false|1|0")
# XSD 1.1 Part 2 D.3.1: a year of more than four digits has no leading
# zero; a timezone is Z or an offset from -14:00 to +14:00.
_YEAR = r"-?(?:[1-9][0-9]{3,}|0[0-9]{3})"
_OFFSET = r"(?:0[0-9]|1[0-3]):[0-5][0-9]|14:00"
_DATE_LEXICAL = re.compile(rf"({_YEAR})-([0-9]{{2}})-([0-9]{{2}})(?:Z|([+-])({_OFFSET}))?")
# A line that is a valid date whatever its year: day 1-28 of any month,
# 29 or 30 of any month but February, 31 of a month that has one. Only
# 29 February, and a text that is no date, are left to `_valid_date`.
_DATES_OF_ANY_YEAR = re.compile(
    rf"^{_YEAR}-(?:(?:0[1-9]|1[0-2])-(?:0[1-9]|1[0-9]|2[0-8])"
    r"|(?:0[13-9]|1[0-2])-(?:29|30)|(?:0[13578]|1[02])-31)"
    rf"(?:Z|[+-](?:{_OFFSET}))?\n",
    re.MULTILINE,
)
_MONTH_DAYS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)

_SURROGATE = re.compile(r"[\ud800-\udfff]")

_LANGUAGE_TAG = re.compile(r"[A-Za-z]{1,8}(?:-[A-Za-z0-9]{1,8})*")

# Fast path: literals without any of these characters serialize as-is.
_NEEDS_ESCAPE = re.compile(r'["\\\x00-\x1f\x7f]')
# A lone surrogate or a character to escape, found by one search
_ESCAPE_OR_SURROGATE = re.compile(r'["\\\x00-\x1f\x7f\ud800-\udfff]')
_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r"}


def exact_int(digits: str) -> int:
    """The integer a signed or unsigned run of decimal digits spells, of
    any length: `int` refuses runs longer than the interpreter's limit
    (4,300 digits by default), and `Decimal`, which has none, makes the
    exact value then."""
    try:
        return int(digits)
    except ValueError:
        return int(Decimal(digits))


def _valid_date(lexical: str) -> bool:
    m = _DATE_LEXICAL.fullmatch(lexical)
    if not m:
        return False
    year, month, day = exact_int(m.group(1)), int(m.group(2)), int(m.group(3))
    if not 1 <= month <= 12:
        return False
    days = _MONTH_DAYS[month - 1]
    if month == 2 and year % 4 == 0 and (year % 100 != 0 or year % 400 == 0):
        days = 29
    return 1 <= day <= days


def date_minutes(lexical: str) -> int:
    """The starting instant of a valid xsd:date, in minutes from 1970-01-01Z.

    This is the order of XSD `op:date-less-than`: a date without a
    timezone is taken as Z. Days are counted in proleptic Gregorian
    arithmetic, which holds for any year, `datetime.date`'s 1-9999 or not.
    """
    year, month, day, sign, offset = _DATE_LEXICAL.fullmatch(lexical).groups()
    # days from civil (H. Hinnant): years begin on March 1, so a leap
    # day is the last day of its year
    y = exact_int(year) - (int(month) <= 2)
    era, year_of_era = divmod(y, 400)
    day_of_year = (153 * ((int(month) + 9) % 12) + 2) // 5 + int(day) - 1
    day_of_era = year_of_era * 365 + year_of_era // 4 - year_of_era // 100 + day_of_year
    days = era * 146097 + day_of_era - 719468
    minutes = 0 if sign is None else int(offset[:2]) * 60 + int(offset[3:])
    return days * 1440 - (minutes if sign == "+" else -minutes)


def _escape_char(ch: str) -> str:
    try:
        return _ESCAPES[ch]
    except KeyError:
        return "\\u%04X" % ord(ch)


def escape_literal(text: str) -> str:
    """Escape a literal's lexical form for N-Triples output.

    Quote, backslash, newline and carriage return use their short
    escapes (RDF 1.1 N-Triples canonical form); every other
    control character becomes \\uXXXX; everything else passes through.
    """
    if _NEEDS_ESCAPE.search(text) is None:
        return text
    return _NEEDS_ESCAPE.sub(lambda m: _escape_char(m.group(0)), text)


def check_iri(text: str) -> str:
    """text, if it is an absolute IRI free of forbidden characters, the
    value an `Iri` holds; raises IllegalCharacterError or RelativeIriError
    if not. `Iri` and the converter's IRI columns check text here."""
    m = _IRI_ILLEGAL.search(text)
    if m is not None:
        raise IllegalCharacterError(text, m.start() + 1)
    if _IRI_SCHEME.match(text) is None:
        raise RelativeIriError(f"not an absolute IRI: {text!r}")
    return text


@dataclass(frozen=True, slots=True)
class Iri:
    """An absolute IRI. Construction validates, never normalizes."""

    value: str

    def __post_init__(self):
        check_iri(self.value)

    def to_ntriples(self) -> str:
        return f"<{self.value}>"

    def __repr__(self):
        return f"Iri({self.value!r})"


RDF_TYPE = Iri(RDF_NS + "type")
RDF_LANGSTRING = Iri(RDF_NS + "langString")
XSD_STRING = Iri(XSD_NS + "string")
XSD_INTEGER = Iri(XSD_NS + "integer")
XSD_DOUBLE = Iri(XSD_NS + "double")
XSD_DECIMAL = Iri(XSD_NS + "decimal")
XSD_DATE = Iri(XSD_NS + "date")
XSD_BOOLEAN = Iri(XSD_NS + "boolean")

# Every datatype whose lexical forms are checked, by IRI text (a str
# caches its hash, an Iri does not): the test of a lexical form, then,
# for a datatype a FILTER can order, the kind of its values (only values
# of one kind compare) and the value a lexical form spells.
_DATATYPES: dict[str, tuple[Callable[[str], object], Optional[str], Optional[Callable]]] = {
    XSD_INTEGER.value: (_INTEGER_LEXICAL.fullmatch, "numeric", exact_int),
    XSD_DECIMAL.value: (_DECIMAL_LEXICAL.fullmatch, "numeric", Decimal),
    XSD_DOUBLE.value: (_DOUBLE_LEXICAL.fullmatch, "numeric", float),
    XSD_DATE.value: (_valid_date, "date", date_minutes),
    XSD_BOOLEAN.value: (_BOOLEAN_LEXICAL.fullmatch, "boolean", ("true", "1").__contains__),
}
_UNORDERED = (None, None, None)  # the _DATATYPES entry of any other datatype


@dataclass(frozen=True, slots=True)
class BlankNode:
    """A blank node with a document-scoped label."""

    label: str

    def __post_init__(self):
        if _BLANK_LABEL.fullmatch(self.label) is None:
            raise TriplifyError(f"invalid blank node label: {self.label!r}")

    def to_ntriples(self) -> str:
        return f"_:{self.label}"

    def __repr__(self):
        return f"BlankNode({self.label!r})"


@dataclass(frozen=True, slots=True)
class Literal:
    """A literal with lexical form, datatype, and optional language tag.

    A plain literal gets datatype xsd:string; a language tag is allowed
    exactly when the datatype is rdf:langString.
    """

    lexical: str
    datatype: Iri = XSD_STRING
    language: Optional[str] = None

    def __post_init__(self):
        _check_literal(self.lexical, self.datatype.value, self.language)

    def to_ntriples(self) -> str:
        return _spell_literal(escape_literal(self.lexical), self.datatype.value, self.language)

    def __repr__(self):
        if self.language is not None:
            return f"Literal({self.lexical!r}, lang={self.language!r})"
        if self.datatype == XSD_STRING:
            return f"Literal({self.lexical!r})"
        return f"Literal({self.lexical!r}, {self.datatype.value!r})"


def _check_literal(lexical: str, datatype: str, language: Optional[str]) -> None:
    """Raise as `Literal(lexical, Iri(datatype), language)` does for a
    literal that cannot be; datatype is a valid IRI's text."""
    m = _SURROGATE.search(lexical)
    if m is not None:
        raise TriplifyError(
            f"lone surrogate {m.group()!r} at position {m.start() + 1} of a literal"
        )
    _check_tag_and_form(lexical, datatype, language)


def _check_tag_and_form(lexical: str, datatype: str, language: Optional[str]) -> None:
    """`_check_literal` but for its surrogate check."""
    if language is not None:
        if datatype != RDF_LANGSTRING.value:
            raise TriplifyError(
                "language tags require the rdf:langString datatype"
            )
        if _LANGUAGE_TAG.fullmatch(language) is None:
            raise TriplifyError(f"malformed language tag: {language!r}")
    elif datatype == RDF_LANGSTRING.value:
        raise TriplifyError("rdf:langString literals require a language tag")
    checked = _DATATYPES.get(datatype)
    if checked is not None and not checked[0](lexical):
        raise LexicalFormMismatchError(lexical, datatype)


def _spell_literal(escaped: str, datatype: str, language: Optional[str]) -> str:
    """The spelling of a literal whose lexical form escapes to `escaped`."""
    body = f'"{escaped}"'
    if language is not None:
        return f"{body}@{language}"
    if datatype == XSD_STRING.value:
        return body
    return f"{body}^^<{datatype}>"


def literal_text(lexical: str, datatype: str, language: Optional[str] = None) -> str:
    """The canonical N-Triples spelling of `Literal(lexical, Iri(datatype),
    language)`, checked as that constructor checks it, without making the
    literal; datatype is a valid IRI's text.

    One search looks for a lone surrogate and a character to escape at
    once; a lexical form that holds neither is its own escaped form."""
    if _ESCAPE_OR_SURROGATE.search(lexical) is None:
        _check_tag_and_form(lexical, datatype, language)
        return _spell_literal(lexical, datatype, language)
    _check_literal(lexical, datatype, language)
    return _spell_literal(escape_literal(lexical), datatype, language)


def own_literal_spellings(tail: str, bodies: list[str]) -> bool:
    """Is `"body"tail` the canonical spelling of its literal, as
    `literal_text` spells it, for every body? `tail` is checked once:
    empty, `@tag`, or `^^<datatype>` for a datatype other than xsd:string
    and rdf:langString, in `IRI_SPELLING`. Then one search of the joined
    bodies looks for a character the writer escapes or a lone surrogate.
    A group where it finds one is refused, written escapes and all, and
    its literals are spelt one at a time; in any other group each body is
    its own spelling when its datatype's test passes it. An xsd:date
    group is searched once, as lines, by `_DATES_OF_ANY_YEAR`; only the
    bodies it leaves go to the test, `_valid_date`."""
    if not tail:
        datatype = XSD_STRING.value
    elif tail[0] == "@":
        if _LANGUAGE_TAG.fullmatch(tail, 1) is None:
            return False
        datatype = RDF_LANGSTRING.value
    else:
        datatype = tail[3:-1]
        if (
            tail[:2] != "^^"
            or _OWN_IRI.fullmatch(tail, 2) is None
            or datatype in (XSD_STRING.value, RDF_LANGSTRING.value)
        ):
            return False
    test = _DATATYPES.get(datatype, _UNORDERED)[0]
    if _ESCAPE_OR_SURROGATE.search("".join(bodies)) is not None:
        return False
    if test is _valid_date:
        # a clean body holds no LF; each body, then LF, is a line
        bodies = _DATES_OF_ANY_YEAR.sub("", "\n".join(bodies + [""])).split("\n")[:-1]
    return test is None or all(map(test, bodies))


def literal_parts(text: str) -> tuple[str, str]:
    """A literal's N-Triples text split at its string's closing quote, the
    last `"` in it: the string's body as written, and the rest, which is
    empty, `@tag` or `^^<datatype>` in a canonical spelling."""
    end = text.rindex('"')
    return text[1:end], text[end + 1 :]


def literal_test(datatype: str) -> Callable[[str], bool]:
    """A test of a canonical N-Triples spelling: does it spell a literal
    of the datatype whose IRI text is `datatype`? It reads the datatype
    from the spelling's end, as no IRI, label or tag holds a `"`."""
    if datatype == XSD_STRING.value:
        return lambda spelling: spelling[0] == '"' and spelling[-1] == '"'
    if datatype == RDF_LANGSTRING.value:
        return lambda spelling: spelling[0] == '"' and spelling[-1] not in '">'
    return methodcaller("endswith", f'"^^<{datatype}>')


Term = Union[Iri, BlankNode, Literal]
SubjectTerm = Union[Iri, BlankNode]


@dataclass(frozen=True, slots=True)
class Triple:
    """One RDF statement. Position constraints hold by construction."""

    s: SubjectTerm
    p: Iri
    o: Term

    def __post_init__(self):
        if isinstance(self.s, Literal):
            raise TriplifyError("literals cannot be subjects")
        if not isinstance(self.s, (Iri, BlankNode)):
            raise TriplifyError(f"bad subject: {self.s!r}")
        if not isinstance(self.p, Iri):
            raise TriplifyError(f"predicates must be IRIs, got: {self.p!r}")
        if not isinstance(self.o, (Iri, BlankNode, Literal)):
            raise TriplifyError(f"bad object: {self.o!r}")


class PrefixMap:
    """Mutable prefix-to-namespace registry with CURIE expansion.

    Re-binding a prefix replaces the old binding.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Optional[dict[str, Union[Iri, str]]] = None):
        self._entries: dict[str, Iri] = {}
        if entries:
            for prefix, ns in entries.items():
                self.bind(prefix, ns)

    def bind(self, prefix: str, namespace: Union[Iri, str]) -> None:
        if not isinstance(namespace, Iri):
            namespace = Iri(namespace)
        self._entries[prefix] = namespace

    def namespace(self, prefix: str) -> Iri:
        try:
            return self._entries[prefix]
        except KeyError:
            raise UnknownPrefixError(prefix) from None

    def expand(self, curie: str) -> Iri:
        """Expand `prefix:local` to a validated Iri."""
        prefix, sep, local = curie.partition(":")
        if not sep:
            raise ValueError(f"not a CURIE (missing colon): {curie!r}")
        return Iri(self.namespace(prefix).value + local)

    def copy(self) -> "PrefixMap":
        out = PrefixMap()
        out._entries.update(self._entries)
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, PrefixMap) and self._entries == other._entries

    def __repr__(self):
        return f"PrefixMap({self._entries!r})"
