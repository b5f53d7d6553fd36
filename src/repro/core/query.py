"""Queries under the paper's simplified query model.

Section 2.2 restricts the study to selection queries with a single
equality predicate — either a structured one (``attribute = value``) or
a keyword one, where only the value is sent and the source decides which
column it matches ("fading schema").  :class:`Query` covers both; the
:meth:`Query.sql` renderer produces the SELECT statement of
Definition 2.2 for logging and debugging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.core.errors import QueryError
from repro.core.values import AttributeValue, normalize


@dataclass(frozen=True, order=True)
class Query:
    """A single-predicate query.

    ``attribute is None`` marks a keyword query.  Values are normalized
    so queries compare equal under the same collation as stored values.
    """

    value: str
    attribute: Optional[str] = None

    def __post_init__(self) -> None:
        value = normalize(self.value)
        if not value:
            raise QueryError("query value must be non-empty")
        object.__setattr__(self, "value", value)
        if self.attribute is not None:
            attribute = self.attribute.strip().lower()
            if not attribute:
                raise QueryError("query attribute must be non-empty if given")
            object.__setattr__(self, "attribute", attribute)

    @classmethod
    def equality(cls, attribute: str, value: str) -> "Query":
        """Structured query: ``WHERE attribute = value``."""
        return cls(value=value, attribute=attribute)

    @classmethod
    def keyword(cls, value: str) -> "Query":
        """Keyword query: the value alone, column chosen by the source."""
        return cls(value=value, attribute=None)

    @classmethod
    def from_attribute_value(cls, pair: AttributeValue) -> "Query":
        """Lift an AVG vertex into the structured query that visits it."""
        return cls(value=pair.value, attribute=pair.attribute)

    @property
    def is_keyword(self) -> bool:
        return self.attribute is None

    def as_attribute_value(self) -> AttributeValue:
        """The AVG vertex this query visits (structured queries only)."""
        if self.attribute is None:
            raise QueryError("keyword queries do not map to a single vertex")
        return AttributeValue(self.attribute, self.value)

    def sql(self, result_attributes: tuple[str, ...] = ("*",)) -> str:
        """Render the Definition 2.2 SELECT statement.

        >>> Query.equality("brand", "IBM").sql(("title", "price"))
        "SELECT title, price FROM DB WHERE brand = 'ibm'"
        """
        projection = ", ".join(result_attributes)
        if self.attribute is None:
            predicate = f"ANY_COLUMN CONTAINS '{self.value}'"
        else:
            predicate = f"{self.attribute} = '{self.value}'"
        return f"SELECT {projection} FROM DB WHERE {predicate}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.attribute is None:
            return f"keyword({self.value!r})"
        return f"{self.attribute}={self.value!r}"

    def __getstate__(self) -> dict:
        # Servers memoize per-table cache keys on query objects (see
        # SimulatedWebDatabase._order_key); those tags reference the
        # server and are only valid in-process, so pickle/deepcopy must
        # shed them.
        return {
            k: v for k, v in self.__dict__.items() if k != "_webdb_order_key"
        }

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)


@dataclass(frozen=True, order=True)
class ConjunctiveQuery:
    """A conjunction of equality predicates over distinct attributes.

    The paper's evaluation is restricted to single-predicate queries and
    leaves "crawling multi-attribute Web sources" as future work; this
    type is that extension.  It models the restrictive interfaces of the
    Table 1 case study's Car domain, where "only multi-attribute queries
    are accepted" (a form demanding make *and* model, say).

    Predicates are stored sorted, so logically equal conjunctions
    compare and hash equal regardless of construction order.
    """

    predicates: tuple

    def __post_init__(self) -> None:
        cleaned = tuple(sorted(set(self.predicates)))
        if not cleaned:
            raise QueryError("a conjunctive query needs at least one predicate")
        if not all(pair.attribute and pair.value for pair in cleaned):
            # The same rule as Query: an empty predicate selects nothing.
            raise QueryError(
                "conjunctive predicates need a non-empty attribute and value"
            )
        attributes = [pair.attribute for pair in cleaned]
        if len(set(attributes)) != len(attributes):
            raise QueryError(
                "conjunctive predicates must use distinct attributes "
                f"(got {attributes})"
            )
        object.__setattr__(self, "predicates", cleaned)

    @classmethod
    def of(cls, *pairs: AttributeValue) -> "ConjunctiveQuery":
        return cls(predicates=tuple(pairs))

    @classmethod
    def equalities(cls, **conditions: str) -> "ConjunctiveQuery":
        """``ConjunctiveQuery.equalities(make="toyota", model="corolla")``."""
        return cls(
            predicates=tuple(
                AttributeValue(attribute, value)
                for attribute, value in conditions.items()
            )
        )

    @property
    def is_keyword(self) -> bool:
        return False

    @property
    def arity(self) -> int:
        """Number of predicates (the interface's ``min_predicates`` gate)."""
        return len(self.predicates)

    @property
    def attributes(self) -> tuple:
        return tuple(pair.attribute for pair in self.predicates)

    def sql(self, result_attributes: tuple = ("*",)) -> str:
        """Render the Definition 2.2 SELECT with an AND-chain predicate."""
        projection = ", ".join(result_attributes)
        condition = " AND ".join(
            f"{pair.attribute} = '{pair.value}'" for pair in self.predicates
        )
        return f"SELECT {projection} FROM DB WHERE {condition}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return " AND ".join(f"{p.attribute}={p.value!r}" for p in self.predicates)

    def __getstate__(self) -> dict:
        # See Query.__getstate__ — shed in-process server cache tags.
        return {
            k: v for k, v in self.__dict__.items() if k != "_webdb_order_key"
        }

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)


#: Anything the server and prober accept as "a query".
AnyQuery = Union[Query, ConjunctiveQuery]
