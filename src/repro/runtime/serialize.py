"""JSON codecs for the crawl's value types.

Checkpoints and journals round-trip crawl state through plain JSON;
this module owns the encodings so every layer (frontiers, policies,
engine, journal) serializes attribute values, queries, records, and RNG
streams the same way.  Decoding reconstructs objects that compare equal
to the originals — the property resume determinism rests on.

Only :mod:`repro.core` types are imported here, so any module (including
the policies themselves) can use these codecs without import cycles.
"""

from __future__ import annotations

import random
from typing import Any, List, Sequence, Tuple

from repro.core.errors import ReproError
from repro.core.query import AnyQuery, ConjunctiveQuery, Query
from repro.core.records import Record
from repro.core.values import AttributeValue


class SerializationError(ReproError):
    """A payload does not decode into the expected crawl state type."""


# ----------------------------------------------------------------------
# Attribute values and combinations
# ----------------------------------------------------------------------
def encode_value(value: AttributeValue) -> List[str]:
    """``AttributeValue`` → ``[attribute, value]``."""
    return [value.attribute, value.value]


def decode_value(payload: Sequence[str]) -> AttributeValue:
    if len(payload) != 2:
        raise SerializationError(f"not an attribute value payload: {payload!r}")
    return AttributeValue(payload[0], payload[1])


Combo = Tuple[AttributeValue, ...]


def encode_combo(combo: Combo) -> List[List[str]]:
    """A tuple of attribute values (a conjunctive candidate)."""
    return [encode_value(pair) for pair in combo]


def decode_combo(payload: Sequence[Sequence[str]]) -> Combo:
    return tuple(decode_value(item) for item in payload)


# ----------------------------------------------------------------------
# Interner state (see repro.core.intern)
# ----------------------------------------------------------------------
def encode_interner(interner) -> List[List[str]]:
    """``ValueInterner`` → its full id assignment, id order.

    Checkpointed so a resumed crawl rebuilds the exact dense-id layout
    of the original run, including ids assigned to frontier values that
    never appeared in a harvested record.
    """
    return interner.state_dict()



# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------
def encode_query(query: AnyQuery) -> dict:
    if isinstance(query, ConjunctiveQuery):
        return {"cq": [encode_value(pair) for pair in query.predicates]}
    return {"a": query.attribute, "v": query.value}


def decode_query(payload: dict) -> AnyQuery:
    if "cq" in payload:
        return ConjunctiveQuery(
            predicates=tuple(decode_value(item) for item in payload["cq"])
        )
    if "v" not in payload:
        raise SerializationError(f"not a query payload: {payload!r}")
    return Query(value=payload["v"], attribute=payload.get("a"))


def query_sort_key(query: AnyQuery) -> str:
    """A total order over mixed Query/ConjunctiveQuery sets.

    Used only to serialize *sets* of queries with deterministic file
    bytes; the runtime never depends on this order.
    """
    if isinstance(query, ConjunctiveQuery):
        return "1|" + "|".join(f"{p.attribute}={p.value}" for p in query.predicates)
    return f"0|{query.attribute or ''}={query.value}"


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
def encode_record(record: Record) -> dict:
    return {
        "id": record.record_id,
        "f": {attribute: list(values) for attribute, values in record.fields.items()},
    }


def decode_record(payload: dict) -> Record:
    try:
        return Record(
            int(payload["id"]),
            {attribute: tuple(values) for attribute, values in payload["f"].items()},
        )
    except (KeyError, TypeError) as error:
        raise SerializationError(f"not a record payload: {payload!r}") from error


# ----------------------------------------------------------------------
# RNG streams
# ----------------------------------------------------------------------
def encode_rng(rng: random.Random) -> list:
    """``random.Random`` internal state as a JSON-safe list."""
    version, internal, gauss = rng.getstate()
    return [version, list(internal), gauss]


def restore_rng(rng: random.Random, payload: Sequence[Any]) -> None:
    """Restore a state captured by :func:`encode_rng` into ``rng``."""
    if len(payload) != 3:
        raise SerializationError(f"not an RNG state payload: {payload!r}")
    version, internal, gauss = payload
    rng.setstate((version, tuple(internal), gauss))

