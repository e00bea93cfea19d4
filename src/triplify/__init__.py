"""triplify: flat tables -> RDF knowledge graph -> shapes -> queries.

The pipeline in one breath: load CSV tables, run an R2RML mapping over
them to build an indexed RDF graph, serialize it as canonical N-Triples,
check it against shape constraints, and ask it questions with a SPARQL
SELECT subset. A bundled clinical-registry model (vocabulary, shapes,
mapping, synthetic data) exercises the whole chain.
"""

from .convert import (
    ConversionReport,
    SkippedTerm,
    convert,
    iri_safe_encode,
)
from .errors import TriplifyError
from .graph import Graph, merge
from .ntriples import parse_ntriples, serialize_ntriples
from .query import (
    FilterExpr,
    Query,
    Solution,
    TriplePattern,
    Var,
    execute,
    merge_and_query,
    parse_query,
)
from .r2rml import (
    Diagnostic,
    MappingDocument,
    PredicateObjectMap,
    RefObjectMap,
    Template,
    TermMap,
    TriplesMap,
    parse_mapping,
    parse_template,
    validate_mapping,
)
from .registry import (
    Shape,
    ShapeConstraint,
    ValidationReport,
    Violation,
    VocabularyTerm,
    builtin_shapes,
    builtin_vocabulary,
    bundled_mapping,
    generate_synthetic,
    load_shapes,
    load_vocabulary,
    registry_prefixes,
    validate_graph,
)
from .tabular import Cell, Row, TableSource, load_csv, write_csv
from .terms import (
    BlankNode,
    Iri,
    Literal,
    PrefixMap,
    Term,
    Triple,
)
from .turtle import parse_turtle

__version__ = "0.1.0"

__all__ = [
    "BlankNode",
    "Cell",
    "ConversionReport",
    "Diagnostic",
    "FilterExpr",
    "Graph",
    "Iri",
    "Literal",
    "MappingDocument",
    "PredicateObjectMap",
    "PrefixMap",
    "Query",
    "RefObjectMap",
    "Row",
    "Shape",
    "ShapeConstraint",
    "SkippedTerm",
    "Solution",
    "TableSource",
    "Template",
    "Term",
    "TermMap",
    "Triple",
    "TriplePattern",
    "TriplesMap",
    "TriplifyError",
    "ValidationReport",
    "Var",
    "Violation",
    "VocabularyTerm",
    "builtin_shapes",
    "builtin_vocabulary",
    "bundled_mapping",
    "convert",
    "execute",
    "generate_synthetic",
    "iri_safe_encode",
    "load_csv",
    "load_shapes",
    "load_vocabulary",
    "merge",
    "merge_and_query",
    "parse_mapping",
    "parse_ntriples",
    "parse_query",
    "parse_template",
    "parse_turtle",
    "registry_prefixes",
    "serialize_ntriples",
    "validate_graph",
    "validate_mapping",
    "write_csv",
]
