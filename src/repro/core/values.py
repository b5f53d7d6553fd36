"""Attribute values — the vertices of the attribute-value graph.

The paper (Definition 2.1) models a structured web database as a set of
*distinct attribute values*: each pair ``(attribute, value)`` such as
``("Actors", "Hanks, Tom")`` is one node of the AVG and one candidate
query.  This module defines that pair as a small immutable value type
plus the normalization applied to raw strings before comparison, so that
``"Tom  Hanks "`` and ``"tom hanks"`` collapse onto the same vertex the
way a case-insensitive SQL collation (as used in the paper's SQL Server
setup) would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


def normalize(raw: str) -> str:
    """Normalize a raw attribute value for matching.

    Lower-cases, strips, and collapses internal whitespace (every
    ``str.isspace()`` character, the set the regex ``\\s`` matches) into
    single spaces.  The result is a fixed point: normalizing it again
    returns an equal string.  The empty string stays empty; callers
    decide whether to reject it (records do, see
    :class:`repro.core.records.Record`).

    >>> normalize("  Hanks,   Tom ")
    'hanks, tom'
    """
    return " ".join(raw.lower().split())


@dataclass(frozen=True, order=True)
class AttributeValue:
    """One ``(attribute, value)`` pair — a vertex of the AVG.

    ``value`` is stored normalized; the constructor applies
    :func:`normalize` so equal-after-normalization inputs compare equal.

    >>> AttributeValue("actor", "Hanks,  Tom") == AttributeValue("actor", "hanks, tom")
    True
    """

    attribute: str
    value: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "attribute", self.attribute.strip().lower())
        object.__setattr__(self, "value", normalize(self.value))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.attribute}={self.value!r}"


_new = object.__new__
_set = object.__setattr__


def _normalized_pair(attribute: str, value: str) -> AttributeValue:
    """An :class:`AttributeValue` over strings that are already normalized.

    Skips ``__post_init__``, so the pair holds the very strings it is
    given.  Only :class:`~repro.core.records.Record` calls it, with the
    attribute name and values it has just normalized; the result equals
    ``AttributeValue(attribute, value)``.
    """
    pair = _new(AttributeValue)
    # Not through pair.__dict__: touching it makes CPython (3.11 and
    # later) give the instance a dict of its own, and every later
    # attribute read and hash of the pair slows by a third or more.
    _set(pair, "attribute", attribute)
    _set(pair, "value", value)
    return pair


def distinct_values(pairs: Iterable[AttributeValue]) -> set[AttributeValue]:
    """Return the distinct attribute-value set (DAV) of an iterable.

    Purely a readability helper: ``set(pairs)`` with a domain name.
    """
    return set(pairs)
