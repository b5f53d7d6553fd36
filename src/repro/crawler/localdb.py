"""The crawler's local database ``DB_local`` and local graph ``G_local``.

Everything a query-selection policy may legitimately know lives here:
the records harvested so far, per-value frequencies (``num(q, DB_local)``),
the local attribute-value graph's degrees (the greedy link signal), and
pairwise co-occurrence counts (the MMMI mutual-information signal).

All statistics are maintained incrementally as records arrive, so policy
lookups are O(1) and adding a record costs O(c²) where ``c`` is the
record's clique size — the same asymptotics as inserting the record's
clique into ``G_local``.

Internally every statistic is **array-backed and id-indexed**: a
:class:`~repro.core.intern.ValueInterner` assigns each attribute value a
dense int id the first time it is seen, frequencies and degrees live in
``array('I')`` columns, adjacency in int-sets, postings in sorted int
arrays keyed by id, and co-occurrence counts in symmetric per-vertex rows
(``_cooc_rows[u][v]``) so a single dict indexes every partner of a
vertex — the layout the vectorized MMMI recompute iterates
queried-major.  Each value is hashed once per appearance (the intern lookup);
everything after that is integer arithmetic.  The public API is
unchanged — it accepts and returns :class:`AttributeValue` — and the
``*_id`` fast paths let the selectors skip even the single hash when
they already hold an id.  The pre-interning dict implementation is
retained verbatim as
:class:`repro.crawler.reference.ReferenceLocalDatabase` and the
differential tests pin the two to identical statistics.

Postings (per-value and keyword) are built *lazily*: :meth:`add` only
logs the record's interned ids, and the inverted lists materialize on
first read, catching up over the log; a value's posting array is
created by its first append.  Policies that never consult postings —
GL reads frequencies and degrees only — therefore never allocate them,
while posting-heavy workloads (conjunctive crawls, untracked
PMI) pay exactly the eager cost, amortized.  Laziness is invisible in
results: every accessor flushes before reading.
"""

from __future__ import annotations

import math
from array import array
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
)

from repro.core.intern import (
    StringInterner,
    ValueInterner,
    intersect_sorted,
)
from repro.core.records import Record
from repro.core.values import AttributeValue

#: Shared empty views returned for unknown keys (no per-call allocation).
_EMPTY_VIEW: frozenset = frozenset()
_EMPTY_IDS: Set[int] = frozenset()  # type: ignore[assignment]
_EMPTY_POSTING: array = array("q")
_EMPTY_ROW: Dict[int, int] = {}


class LocalDatabase:
    """Deduplicated store of harvested records with incremental statistics.

    Parameters
    ----------
    track_cooccurrence:
        Maintain pairwise co-occurrence counts (needed by MMMI).  Off by
        default since the quadratic-in-clique bookkeeping is wasted on
        policies that never consult it.
    interner:
        Share an existing :class:`ValueInterner` (e.g. one restored from
        a checkpoint).  A fresh one is built by default.
    """

    def __init__(
        self,
        track_cooccurrence: bool = False,
        interner: Optional[ValueInterner] = None,
    ) -> None:
        self._records: Dict[int, Record] = {}
        #: Dense value ↔ id map shared with the frontier and selectors.
        self.interner = interner if interner is not None else ValueInterner()
        self._tokens = StringInterner()
        # Id-indexed statistic arrays, grown in lock-step with the
        # interner by _ensure().  A value interned through a shared
        # interner but never seen in a record keeps zero statistics,
        # exactly like an absent key did in the dict implementation.
        self._freq = array("I")
        #: Incremental degree column: _deg[vid] == len(_neighbor_sets[vid])
        #: at all times, so degree reads never touch the (larger) sets and
        #: batch scorers can gather degrees straight from the buffer.
        self._deg = array("I")
        self._neighbor_sets: List[Set[int]] = []
        # Lazy inverted indexes: add() appends to the logs; the first
        # accessor that needs a posting list drains them (see
        # _flush_postings / _flush_keywords).  A value's posting array
        # is created on its first append, so a crawl that never reads
        # postings allocates none.
        self._posting_lists: Dict[int, array] = {}
        self._dirty_postings: Set[int] = set()
        self._posting_log: List[tuple] = []  # (record_id, interned ids)
        self._kw_postings: List[array] = []
        self._record_log: List[Record] = []  # insertion order
        self._kw_upto = 0  # records folded into the keyword index
        self._num_distinct = 0
        self.track_cooccurrence = track_cooccurrence
        # Symmetric per-vertex co-occurrence rows: _cooc_rows[u][v] ==
        # _cooc_rows[v][u] == #records containing both u and v (u != v).
        # Grown only when tracking (the rows would be dead weight for GL).
        self._cooc_rows: List[Dict[int, int]] = []

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def intern_value(self, value: AttributeValue) -> int:
        """The value's dense id, assigning one (and growing stats) if new."""
        vid = self.interner.intern(value)
        if vid >= len(self._freq):
            self._ensure(vid)
        return vid

    def value_id(self, value: AttributeValue) -> Optional[int]:
        """The value's id, or None if it was never interned here."""
        return self.interner.lookup(value)

    def _ensure(self, vid: int) -> None:
        """Grow the id-indexed arrays to cover ``vid`` (batched)."""
        grow = vid + 1 - len(self._freq)
        if grow <= 0:
            return
        zeros = bytes(grow * self._freq.itemsize)
        self._freq.frombytes(zeros)
        self._deg.frombytes(zeros)
        self._neighbor_sets.extend(set() for _ in range(grow))
        if self.track_cooccurrence:
            self._cooc_rows.extend({} for _ in range(grow))

    def load_interner_state(self, payload) -> None:
        """Restore a checkpointed id assignment (before re-adding records).

        Gives the empty database the original run's exact id layout, so
        values first seen as frontier candidates (not in any record)
        keep their original ids after a resume.
        """
        if self._records:
            raise ValueError("load_interner_state requires an empty database")
        self.interner.load_state(payload)
        if len(self.interner):
            self._ensure(len(self.interner) - 1)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def add(self, record: Record, ids: Optional[Sequence[int]] = None) -> bool:
        """Store a harvested record; returns False for duplicates.

        Duplicate detection is by record id — the simulated sources give
        every record a stable id, playing the role of the URL / ASIN a
        real extractor would dedupe on.

        ``ids`` may carry the record's full clique pre-interned (in
        ``record.attribute_values()`` order) by a caller sharing this
        database's interner — the extractor's per-record memo — so the
        clique is hashed once per crawl, not once per module.
        """
        record_id = record.record_id
        records = self._records
        if record_id in records:
            return False
        records[record_id] = record
        self._record_log.append(record)
        interner = self.interner
        if ids is None:
            intern = interner.intern
            ids = [intern(pair) for pair in record.attribute_values()]
        freq = self._freq
        if len(freq) < len(interner):
            self._ensure(len(interner) - 1)

        bumped = 0
        for vid in ids:
            count = freq[vid]
            if count == 0:
                bumped += 1
            freq[vid] = count + 1
        if bumped:
            self._num_distinct += bumped
        self._posting_log.append((record_id, ids))

        if self.track_cooccurrence:
            rows = self._cooc_rows
            n = len(ids)
            for i in range(n):
                u = ids[i]
                row_u = rows[u]
                for j in range(i + 1, n):
                    v = ids[j]
                    count = row_u.get(v, 0) + 1
                    row_u[v] = count
                    rows[v][u] = count
        # Clique edges: each vertex unions the whole clique (a C-speed
        # bulk op) and drops itself, instead of O(c²) Python-level adds.
        neighbors = self._neighbor_sets
        deg = self._deg
        for u in ids:
            mine = neighbors[u]
            mine.update(ids)
            mine.discard(u)
            deg[u] = len(mine)
        return True

    def add_all(self, records: Iterable[Record]) -> int:
        """Add many records; returns how many were new."""
        return sum(1 for record in records if self.add(record))

    # ------------------------------------------------------------------
    # Record access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, record_id: int) -> bool:
        return record_id in self._records

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records.values())

    def record_ids(self) -> List[int]:
        return sorted(self._records)

    # ------------------------------------------------------------------
    # Statistics — what policies are allowed to see
    # ------------------------------------------------------------------
    def frequency(self, value: AttributeValue) -> int:
        """``num(value, DB_local)`` — matched records harvested so far."""
        vid = self.interner.lookup(value)
        return 0 if vid is None or vid >= len(self._freq) else self._freq[vid]

    def frequency_id(self, vid: int) -> int:
        """Id fast path of :meth:`frequency`."""
        return self._freq[vid] if vid < len(self._freq) else 0

    def frequency_column(self) -> array:
        """The live id-indexed frequency column (read-only contract).

        The MMMI kernel wraps this buffer in a numpy view; it must never
        be mutated from outside and must be re-fetched after any ``add``
        or ``intern_value`` (growth may reallocate the buffer).
        """
        return self._freq

    def degree(self, value: AttributeValue) -> int:
        """Degree of ``value`` in the local AVG ``G_local``."""
        vid = self.interner.lookup(value)
        if vid is None or vid >= len(self._deg):
            return 0
        return self._deg[vid]

    def degree_id(self, vid: int) -> int:
        """Id fast path of :meth:`degree`."""
        if vid < len(self._deg):
            return self._deg[vid]
        return 0

    def neighbors(self, value: AttributeValue) -> FrozenSet[AttributeValue]:
        """The value's neighbours in ``G_local`` (a copy-safe view).

        The returned set is immutable and detached from the index:
        callers can keep, compare, or combine it without any way of
        corrupting ``G_local``'s adjacency.
        """
        vid = self.interner.lookup(value)
        if vid is None or vid >= len(self._neighbor_sets):
            return _EMPTY_VIEW
        ids = self._neighbor_sets[vid]
        if not ids:
            return _EMPTY_VIEW
        decode = self.interner.value
        return frozenset(decode(n) for n in ids)

    def neighbor_id_set(self, vid: int) -> Set[int]:
        """The value's neighbour ids — the **live internal set**.

        Zero-copy by design: the MMMI recompute intersects every
        candidate's neighbourhood against the queried set, and copying a
        hub's thousands of neighbours per candidate would dominate the
        pass.  Callers must treat it as read-only.
        """
        if vid < len(self._neighbor_sets):
            return self._neighbor_sets[vid]
        return _EMPTY_IDS

    def matching_ids(self, value: AttributeValue) -> FrozenSet[int]:
        """Ids of local records containing ``value`` (a copy-safe view)."""
        vid = self.interner.lookup(value)
        if vid is None:
            return _EMPTY_VIEW
        if self._posting_log:
            self._flush_postings()
        plist = self._posting_lists.get(vid)
        return frozenset(plist) if plist else _EMPTY_VIEW

    def keyword_frequency(self, value: str) -> int:
        """Local records holding ``value`` under *any* attribute."""
        if self._kw_upto < len(self._record_log):
            self._flush_keywords()
        tid = self._tokens.lookup(value)
        if tid is None or tid >= len(self._kw_postings):
            return 0
        return len(self._kw_postings[tid])

    # ------------------------------------------------------------------
    # Postings — lazily materialized inverted indexes
    # ------------------------------------------------------------------
    def _flush_postings(self) -> None:
        """Fold the logged (record, ids) entries into the posting lists.

        add() only logs; the fold runs on first read, so policies that
        never consult postings never pay for them.  Amortized cost for
        posting-heavy workloads equals the eager cost: each logged entry
        is folded exactly once.
        """
        postings = self._posting_lists
        dirty = self._dirty_postings
        for record_id, ids in self._posting_log:
            for vid in ids:
                plist = postings.get(vid)
                if plist is None:
                    postings[vid] = plist = array("q")
                elif record_id < plist[-1]:
                    dirty.add(vid)
                plist.append(record_id)
        self._posting_log.clear()

    def _flush_keywords(self) -> None:
        """Fold records added since the last keyword read into the index."""
        intern = self._tokens.intern
        kw_postings = self._kw_postings
        for record in self._record_log[self._kw_upto:]:
            record_id = record.record_id
            seen_tokens: Set[int] = set()
            for pair in record.attribute_values():
                tid = intern(pair.value)
                if tid not in seen_tokens:
                    seen_tokens.add(tid)
                    while len(kw_postings) <= tid:
                        kw_postings.append(array("q"))
                    kw_postings[tid].append(record_id)
        self._kw_upto = len(self._record_log)

    def _sorted_posting(self, vid: int) -> array:
        """The value's posting list, ascending (lazily re-sorted).

        Harvest order is not id order (ranked sources, random
        frontiers), so appends mark the list dirty and the sort is paid
        once per read burst instead of once per insert.
        """
        if self._posting_log:
            self._flush_postings()
        plist = self._posting_lists.get(vid)
        if plist is None:
            return _EMPTY_POSTING
        if vid in self._dirty_postings:
            self._posting_lists[vid] = plist = array("q", sorted(plist))
            self._dirty_postings.discard(vid)
        return plist

    def conjunctive_matching_ids(self, predicates) -> Set[int]:
        """Local records satisfying every predicate (posting intersection)."""
        return set(self._conjunctive_match(predicates))

    def conjunctive_frequency(self, predicates) -> int:
        """``num(q, DB_local)`` for a conjunctive query."""
        return len(self._conjunctive_match(predicates))

    def conjunctive_frequency_ids(self, vids: Sequence[int]) -> int:
        """Id fast path of :meth:`conjunctive_frequency`."""
        return len(self._intersect_ids(vids))

    def _conjunctive_match(self, predicates) -> Sequence[int]:
        lookup = self.interner.lookup
        vids = []
        for pair in predicates:
            vid = lookup(pair)
            if vid is None:
                return _EMPTY_POSTING
            vids.append(vid)
        return self._intersect_ids(vids)

    def _intersect_ids(self, vids: Sequence[int]) -> Sequence[int]:
        """Sorted-array merge intersection, most-selective-first."""
        postings = [self._sorted_posting(vid) for vid in vids]
        if not postings or any(not p for p in postings):
            return _EMPTY_POSTING
        postings.sort(key=len)
        result: Sequence[int] = postings[0]
        for posting in postings[1:]:
            result = intersect_sorted(result, posting)
            if not result:
                break
        return result

    # ------------------------------------------------------------------
    # Co-occurrence and PMI
    # ------------------------------------------------------------------
    def cooccurrence(self, u: AttributeValue, v: AttributeValue) -> int:
        """Records of ``DB_local`` containing both values.

        With ``track_cooccurrence`` enabled this is O(1); otherwise it
        falls back to intersecting posting lists.  A value co-occurs
        with itself in every record containing it.
        """
        lookup = self.interner.lookup
        uid, vid = lookup(u), lookup(v)
        if uid is None or vid is None:
            return 0
        return self.cooccurrence_ids(uid, vid)

    def cooccurrence_ids(self, u: int, v: int) -> int:
        """Id fast path of :meth:`cooccurrence`."""
        if u == v:
            return self.frequency_id(u)
        if self.track_cooccurrence:
            if u < len(self._cooc_rows):
                return self._cooc_rows[u].get(v, 0)
            return 0
        return len(intersect_sorted(self._sorted_posting(u), self._sorted_posting(v)))

    def cooc_row(self, vid: int) -> Dict[int, int]:
        """The vertex's **live** co-occurrence row ``{partner: joint}``.

        Zero-copy by design, like :meth:`neighbor_id_set`: the vectorized
        MMMI recompute bulk-loads each issued query's partners and joint
        counts straight out of the row.  Callers must treat it as
        read-only.  Empty unless ``track_cooccurrence`` is on.
        """
        if vid < len(self._cooc_rows):
            return self._cooc_rows[vid]
        return _EMPTY_ROW

    def pmi(self, u: AttributeValue, v: AttributeValue) -> float:
        """Pointwise mutual information ``ln P(u,v) / (P(u) P(v))``.

        The Definition 3.1 dependency signal.  Returns ``-inf`` when the
        values never co-occur locally, and ``-inf`` when either value is
        unseen (no evidence of dependency).
        """
        lookup = self.interner.lookup
        uid, vid = lookup(u), lookup(v)
        if uid is None or vid is None:
            return -math.inf
        return self.pmi_ids(uid, vid)

    def pmi_ids(self, u: int, v: int) -> float:
        """Id fast path of :meth:`pmi`."""
        n = len(self._records)
        if n == 0:
            return -math.inf
        joint = self.cooccurrence_ids(u, v)
        if joint == 0:
            return -math.inf
        return math.log(joint * n / (self._freq[u] * self._freq[v]))

    def dependency_score_ids(
        self, vid: int, queried_ids: Set[int], use_max: bool = True
    ) -> float:
        """Definition 3.1's ``s(q_i)`` over interned ids.

        The max (or mean) finite PMI of ``vid`` against the members of
        ``queried_ids`` it co-occurs with; ``-inf`` when it co-occurs
        with none.  Bit-for-bit equal to aggregating
        :meth:`pmi_ids` pairwise — same arithmetic in the same order —
        with the per-pair call overhead inlined away: this is the MMMI
        batch recompute's inner loop.
        """
        queried_neighbors = self._neighbor_sets[vid] & queried_ids
        if not queried_neighbors:
            return -math.inf
        n = len(self._records)
        if n == 0:
            return -math.inf
        freq = self._freq
        fu = freq[vid]
        log = math.log
        best = -math.inf
        total = 0.0
        count = 0
        if self.track_cooccurrence:
            row_get = self._cooc_rows[vid].get
            for v in queried_neighbors:
                joint = row_get(v, 0)
                if joint == 0:
                    continue
                p = log(joint * n / (fu * freq[v]))
                if p > best:
                    best = p
                total += p
                count += 1
        else:
            pmi_ids = self.pmi_ids
            for v in queried_neighbors:
                p = pmi_ids(vid, v)
                if p == -math.inf:
                    continue
                if p > best:
                    best = p
                total += p
                count += 1
        if use_max:
            return best
        if count == 0:
            return -math.inf
        return total / count

    # ------------------------------------------------------------------
    # Vocabulary
    # ------------------------------------------------------------------
    def distinct_values(self) -> List[AttributeValue]:
        """Every attribute value seen locally (vertices of ``G_local``).

        A shared interner may hold ids for values no harvested record
        contains (seeds, frontier candidates); those are *not* vertices
        of ``G_local`` and are filtered by frequency.
        """
        values = self.interner.values()
        return sorted(
            values[vid] for vid, count in enumerate(self._freq) if count
        )

    def num_distinct_values(self) -> int:
        return self._num_distinct

    def values_of_attribute(self, attribute: str) -> List[AttributeValue]:
        key = attribute.strip().lower()
        values = self.interner.values()
        return sorted(
            values[vid]
            for vid, count in enumerate(self._freq)
            if count and values[vid].attribute == key
        )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_table(self, schema, name: str = "harvest"):
        """Materialize the harvest as a :class:`RelationalTable`.

        The bridge between one crawl and the next: a previous harvest
        becomes a queryable table — persistable via :mod:`repro.io`, or
        fed to :func:`repro.domain.build_domain_table` so a *self*
        domain table bootstraps the re-crawl (the paper's "crawler may
        have already acquired access to structured content from some
        databases in the same domain" includes its own last run).

        Records whose attributes fall outside ``schema`` are rejected by
        the table's own validation, surfacing schema drift loudly.
        """
        from repro.core.table import RelationalTable

        table = RelationalTable(schema, name=name)
        for record_id in self.record_ids():
            table.insert(self._records[record_id])
        return table
