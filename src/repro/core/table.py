"""The universal relational table backing a simulated web source.

The paper joins each source's data "into one single universal table" and
makes multi-valued columns full-text searchable (Section 5).  A
:class:`RelationalTable` stores :class:`~repro.core.records.Record` rows
and maintains two inverted indexes so that both structured equality
queries and keyword queries run in time proportional to their result
size:

- ``(attribute, value) → record ids`` for equality predicates, and
- ``value → record ids`` for keyword queries.

Record ids returned by matching methods are always sorted ascending so
results are deterministic and pagination is stable.  Posting lists are
kept sorted *at insertion time*: bulk loading assigns ascending record
ids, so the common case is an O(1) append, and the matching methods
return plain copies instead of re-sorting on every call — the latter
dominated crawl profiles, since every page request of every query hits
a posting list.

Both indexes are id-indexed lists behind a
:class:`~repro.core.intern.ValueInterner` /
:class:`~repro.core.intern.StringInterner`: each key is hashed once at
insert (or lookup) to resolve its dense id, and conjunctive matching
intersects sorted posting arrays with a two-pointer merge instead of
building sets.
"""

from __future__ import annotations

import random
from bisect import insort
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.core.errors import SchemaError
from repro.core.intern import StringInterner, ValueInterner, intersect_sorted
from repro.core.query import AnyQuery, ConjunctiveQuery
from repro.core.records import Record
from repro.core.schema import Schema
from repro.core.values import AttributeValue, normalize


def _insert_posting(postings: List[int], record_id: int) -> None:
    """Insert ``record_id`` keeping ``postings`` sorted ascending.

    Inserts are effectively append-ordered (bulk loaders hand out
    ascending ids), so the tail check makes the common case O(1); the
    bisect fallback keeps out-of-order inserts correct.
    """
    if not postings or record_id > postings[-1]:
        postings.append(record_id)
    else:
        insort(postings, record_id)


class RelationalTable:
    """An indexed, append-only universal table.

    Parameters
    ----------
    schema:
        Column definitions including queriable / displayed flags.
    name:
        Human-readable source name used in reports ("ebay", "imdb", ...).
    """

    def __init__(self, schema: Schema, name: str = "db") -> None:
        self.schema = schema
        self.name = name
        self._records: Dict[int, Record] = {}
        self._value_interner = ValueInterner()
        self._keyword_interner = StringInterner()
        # Posting lists indexed by interned id, grown in lock-step with
        # the interners; only insert() assigns ids, so every id has a
        # non-empty posting list (the table is append-only).
        self._equality_postings: List[List[int]] = []
        self._keyword_postings: List[List[int]] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def insert(self, record: Record) -> None:
        """Insert one record, updating both inverted indexes.

        Raises
        ------
        SchemaError
            If the record id already exists or the record references an
            attribute the schema does not define.
        """
        if record.record_id in self._records:
            raise SchemaError(f"duplicate record id {record.record_id}")
        for attribute in record.fields:
            if attribute not in self.schema:
                raise SchemaError(
                    f"record {record.record_id} uses unknown attribute "
                    f"{attribute!r}"
                )
        self._records[record.record_id] = record
        equality = self._equality_postings
        keywords = self._keyword_postings
        seen_keywords: set[int] = set()
        for pair in record.attribute_values():
            vid = self._value_interner.intern(pair)
            if vid == len(equality):
                equality.append([])
            _insert_posting(equality[vid], record.record_id)
            tid = self._keyword_interner.intern(pair.value)
            if tid not in seen_keywords:
                seen_keywords.add(tid)
                if tid == len(keywords):
                    keywords.append([])
                _insert_posting(keywords[tid], record.record_id)

    def insert_rows(self, rows: Iterable[dict], start_id: int = 0) -> None:
        """Bulk-insert raw ``attribute → value(s)`` dictionaries."""
        next_id = start_id
        while next_id in self._records:
            next_id += 1
        for row in rows:
            self.insert(Record.build(next_id, self.schema, **row))
            next_id += 1
            while next_id in self._records:
                next_id += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records.values())

    def __contains__(self, record_id: int) -> bool:
        return record_id in self._records

    def get(self, record_id: int) -> Record:
        return self._records[record_id]

    def record_ids(self) -> List[int]:
        """All record ids, ascending."""
        return sorted(self._records)

    def distinct_values(self, attribute: Optional[str] = None) -> List[AttributeValue]:
        """The distinct attribute-value set (DAV), optionally per attribute.

        This is the vertex set of the table's attribute-value graph.
        """
        values = self._value_interner.values()
        if attribute is None:
            return sorted(values)
        key = attribute.strip().lower()
        return sorted(p for p in values if p.attribute == key)

    def num_distinct_values(self) -> int:
        """``|DAV|`` — the AVG's vertex count (Table 2's right column)."""
        return len(self._value_interner)

    def frequency(self, pair: AttributeValue) -> int:
        """Number of records containing ``pair``."""
        vid = self._value_interner.lookup(pair)
        return 0 if vid is None else len(self._equality_postings[vid])

    # ------------------------------------------------------------------
    # Interned ids — for callers keying caches on this table's values
    # ------------------------------------------------------------------
    def value_id(self, pair: AttributeValue) -> Optional[int]:
        """Dense id of an attribute value, or None if absent."""
        return self._value_interner.lookup(pair)

    def keyword_id(self, value: str) -> Optional[int]:
        """Dense id of a (normalized) keyword token, or None if absent."""
        return self._keyword_interner.lookup(normalize(value))

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def match_equality(self, attribute: str, value: str) -> List[int]:
        """Record ids matching ``attribute = value``, sorted ascending."""
        vid = self._value_interner.lookup(AttributeValue(attribute, value))
        return [] if vid is None else list(self._equality_postings[vid])

    def match_keyword(self, value: str) -> List[int]:
        """Record ids holding ``value`` under *any* attribute, sorted."""
        tid = self._keyword_interner.lookup(normalize(value))
        return [] if tid is None else list(self._keyword_postings[tid])

    def match_conjunctive(self, predicates: Sequence[AttributeValue]) -> List[int]:
        """Record ids satisfying *all* predicates, sorted ascending.

        Evaluated by merging sorted posting arrays smallest-first, so
        the cost is proportional to the most selective predicate.
        """
        lookup = self._value_interner.lookup
        postings = []
        for pair in predicates:
            vid = lookup(pair)
            if vid is None:
                return []
            postings.append(self._equality_postings[vid])
        if not postings:
            return []
        postings.sort(key=len)
        result: Sequence[int] = postings[0]
        for posting in postings[1:]:
            result = intersect_sorted(result, posting)
            if not result:
                break
        return list(result)

    def match(self, query: AnyQuery) -> List[int]:
        """Dispatch any query kind to the right index path."""
        if isinstance(query, ConjunctiveQuery):
            return self.match_conjunctive(query.predicates)
        if query.is_keyword:
            return self.match_keyword(query.value)
        assert query.attribute is not None
        return self.match_equality(query.attribute, query.value)

    def count(self, query: AnyQuery) -> int:
        """``num(q, DB)`` from the paper's cost model (Definition 2.3)."""
        if isinstance(query, ConjunctiveQuery):
            return len(self.match_conjunctive(query.predicates))
        if query.is_keyword:
            tid = self._keyword_interner.lookup(normalize(query.value))
            return 0 if tid is None else len(self._keyword_postings[tid])
        vid = self._value_interner.lookup(query.as_attribute_value())
        return 0 if vid is None else len(self._equality_postings[vid])

    # ------------------------------------------------------------------
    # Projection
    # ------------------------------------------------------------------
    def project(self, record_ids: Sequence[int]) -> List[Record]:
        """Project records onto the result schema ``Ar``.

        Attributes flagged ``displayed=False`` are stripped, modelling a
        source that accepts queries on a column it never shows.
        """
        displayed = set(self.schema.displayed)
        projected = []
        for record_id in record_ids:
            record = self._records[record_id]
            if len(displayed) == len(self.schema):
                projected.append(record)
                continue
            fields = {
                attribute: values
                for attribute, values in record.fields.items()
                if attribute in displayed
            }
            projected.append(Record(record.record_id, fields))
        return projected


def sample_seed_values(
    table: RelationalTable,
    count: int,
    rng: random.Random,
    min_frequency: int = 1,
) -> List[AttributeValue]:
    """Draw seed attribute values from random records of the table.

    Mirrors the paper's setup ("evaluated four times with different seed
    values ... and the average result is reported").  One queriable
    value is drawn from each of ``count`` random records;
    ``min_frequency`` can bias seeds away from single-record islands
    (used for the Amazon experiments, where a frequency-1 seed may be an
    island the relational crawler can never leave).
    """
    queriable = set(table.schema.queriable)
    record_ids = table.record_ids()
    seeds: List[AttributeValue] = []
    attempts = 0
    while len(seeds) < count and attempts < 200 * count:
        attempts += 1
        record = table.get(record_ids[rng.randrange(len(record_ids))])
        candidates = [
            pair
            for pair in record.attribute_values()
            if pair.attribute in queriable
            and table.frequency(pair) >= min_frequency
        ]
        if not candidates:
            continue
        value = candidates[rng.randrange(len(candidates))]
        if value not in seeds:
            seeds.append(value)
    if not seeds:
        raise ValueError("could not sample any seed values")
    return seeds
