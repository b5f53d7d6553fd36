"""Records of the universal table.

A :class:`Record` is one row of the single relational table ``DB`` the
paper uses to model a structured web source (Section 2.1).  Multi-valued
attributes (the paper's "Authors" example) carry a tuple of values; the
paper concatenates them into one full-text-searchable column, which here
means a single-equality query on the attribute matches if *any* of the
values equals the query value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence, Union

from repro.core.errors import SchemaError
from repro.core.schema import Schema
from repro.core.values import AttributeValue, _normalized_pair, normalize

RawValue = Union[str, Sequence[str]]


@dataclass(frozen=True)
class Record:
    """One immutable row: a record id plus attribute → values mapping.

    Values are normalized at construction; empty values are dropped.
    ``fields`` maps attribute name to a tuple of normalized strings
    (singletons for single-valued attributes).  The pairs of
    :meth:`attribute_values` follow ``fields`` in order and hold its
    strings.
    """

    record_id: int
    fields: Mapping[str, tuple[str, ...]]
    _values: tuple[AttributeValue, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cleaned: dict[str, tuple[str, ...]] = {}
        for attribute, values in self.fields.items():
            # Keeps first-seen order and drops duplicates and empties.
            unique = dict.fromkeys(map(normalize, values))
            unique.pop("", None)
            if unique:
                cleaned[attribute.strip().lower()] = tuple(unique)
        object.__setattr__(self, "fields", cleaned)
        # Each value was normalized once, just above; the pairs share
        # those strings rather than normalizing copies of them.
        object.__setattr__(
            self,
            "_values",
            tuple(
                _normalized_pair(name, value)
                for name, values in cleaned.items()
                for value in values
            ),
        )

    @classmethod
    def build(cls, record_id: int, schema: Schema, **raw: RawValue) -> "Record":
        """Construct a record validated against ``schema``.

        Single strings are wrapped into singleton tuples; sequences are
        only accepted for multivalued attributes.

        >>> schema = Schema.of("title", authors={"multivalued": True})
        >>> r = Record.build(1, schema, title="A Paper", authors=["X", "Y"])
        >>> r.values_of("authors")
        ('x', 'y')
        """
        fields: dict[str, tuple[str, ...]] = {}
        for attribute, value in raw.items():
            definition = schema.attribute(attribute)
            if isinstance(value, str):
                values: tuple[str, ...] = (value,)
            else:
                if not definition.multivalued and len(value) > 1:
                    raise SchemaError(
                        f"attribute {attribute!r} is single-valued but got "
                        f"{len(value)} values"
                    )
                values = tuple(value)
            fields[definition.name] = values
        return cls(record_id, fields)

    def values_of(self, attribute: str) -> tuple[str, ...]:
        """Normalized values stored under ``attribute`` (may be empty)."""
        return self.fields.get(attribute.strip().lower(), ())

    def attribute_values(self) -> tuple[AttributeValue, ...]:
        """Every (attribute, value) pair of the record — its AVG clique."""
        return self._values

    def matches(self, attribute: str, value: str) -> bool:
        """True iff the record holds ``value`` under ``attribute``."""
        return normalize(value) in self.values_of(attribute)

    def matches_keyword(self, value: str) -> bool:
        """True iff any attribute of the record holds ``value``.

        Models the paper's keyword interfaces where the crawler "throws"
        a value into the search box and the site decides the column.
        """
        needle = normalize(value)
        return any(needle in values for values in self.fields.values())

    def __iter__(self) -> Iterator[AttributeValue]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)
