"""Exception hierarchy shared by all triplify modules.

Every error raised on purpose by this package derives from TriplifyError,
so callers (notably the CLI) can separate data problems from genuine bugs.
"""


class TriplifyError(Exception):
    pass


# --- RDF term construction -----------------------------------------------

class IriError(TriplifyError):
    pass


class RelativeIriError(IriError):
    """The text has no scheme and no base IRI was available."""


class IllegalCharacterError(IriError):
    """A character forbidden in IRIs was found; position is 1-based."""

    def __init__(self, text: str, position: int):
        self.text = text
        self.position = position
        super().__init__(f"illegal character at offset {position} in IRI: {text!r}")


class UnknownPrefixError(TriplifyError):
    def __init__(self, prefix: str):
        self.prefix = prefix
        super().__init__(f"unknown prefix: {prefix!r}")


class LexicalFormMismatchError(TriplifyError):
    """A literal's lexical form does not match its declared datatype."""

    def __init__(self, lexical: str, datatype: str):
        self.lexical = lexical
        self.datatype = datatype
        super().__init__(f"{lexical!r} is not a valid lexical form for <{datatype}>")


# --- document parsing (Turtle, N-Triples, queries) ------------------------

class ParseError(TriplifyError):
    """Syntax error with a 1-based position in the source text."""

    def __init__(self, message: str, line: int, column: int = 0):
        self.line = line
        self.column = column
        where = f"line {line}" + (f", column {column}" if column else "")
        super().__init__(f"{message} ({where})")


# --- R2RML mapping model ---------------------------------------------------

class MappingError(TriplifyError):
    pass


class MissingSubjectMapError(MappingError):
    pass


class MissingLogicalTableError(MappingError):
    pass


class LiteralSubjectError(MappingError):
    pass


class DanglingParentMapError(MappingError):
    pass


class ConflictingSourceError(MappingError):
    """A term map declares more than one of constant/column/template."""


class UnsupportedFeatureError(MappingError):
    """A mapping uses a feature this engine deliberately rejects."""


class TemplateError(MappingError):
    pass


class UnbalancedBracesError(TemplateError):
    pass


class EmptyColumnNameError(TemplateError):
    pass


class NoColumnReferenceError(TemplateError):
    """A template references no column at all."""


# --- tabular sources -------------------------------------------------------

class CsvError(TriplifyError):
    pass


class RaggedRowError(CsvError):
    def __init__(self, record: int, expected: int, got: int):
        self.record = record
        super().__init__(
            f"record {record} has {got} fields, expected {expected}"
        )


class DuplicateHeaderError(CsvError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"duplicate column name in header: {name!r}")


# --- conversion ------------------------------------------------------------

class ValidationFailedError(TriplifyError):
    """convert() was called while validate_mapping still reports errors."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        lines = "; ".join(str(d) for d in self.diagnostics)
        super().__init__(f"mapping validation failed: {lines}")


# --- queries ---------------------------------------------------------------

class QueryError(TriplifyError):
    pass


class UnboundProjectionError(QueryError):
    """A projected or filtered variable appears in no graph pattern."""


class TypeMismatchError(QueryError):
    """An ordering filter's operand has no order (`FILTER(?x < "abc")`).

    Raised only by `parse_query`: when a query runs, ordering a term of
    another kind drops that row, as SPARQL 1.1 section 17.2 says."""
