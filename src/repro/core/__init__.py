"""Relational substrate: records, schemas, universal tables, queries."""

from repro.core.errors import (
    CrawlError,
    DatasetError,
    EstimationError,
    PaginationError,
    QueryError,
    ReproError,
    SchemaError,
    UnsupportedQueryError,
)
from repro.core.intern import (
    StringInterner,
    ValueInterner,
    intersect_sorted,
    pack_pair,
    unpack_pair,
)
from repro.core.query import AnyQuery, ConjunctiveQuery, Query
from repro.core.records import Record
from repro.core.schema import Attribute, Schema
from repro.core.table import RelationalTable, sample_seed_values
from repro.core.values import AttributeValue, normalize

__all__ = [
    "AnyQuery",
    "Attribute",
    "AttributeValue",
    "ConjunctiveQuery",
    "CrawlError",
    "DatasetError",
    "EstimationError",
    "PaginationError",
    "Query",
    "QueryError",
    "Record",
    "RelationalTable",
    "ReproError",
    "Schema",
    "SchemaError",
    "StringInterner",
    "UnsupportedQueryError",
    "ValueInterner",
    "intersect_sorted",
    "normalize",
    "pack_pair",
    "sample_seed_values",
    "unpack_pair",
]
