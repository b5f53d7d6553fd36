"""Domain-knowledge-based query selection — DM (Section 4).

The DM selector fixes GL's two fundamental limitations: near-sighted
harvest-rate estimation (only ``DB_local`` statistics) and the limited
candidate pool (only previously returned values).  Armed with a
:class:`~repro.domain.table.DomainStatisticsTable` built from a sample
database of the same domain, it maintains two candidate groups:

``Q_DB`` — values already seen in the target's results.  Their harvest
rate follows Eq. 4.1, ``HR(q) = 1 - num(q, DB_local) / num̂(q, DB)``
(the paper's factor ``k`` is a constant across candidates and dropped
so the estimate is comparable with ``Q_DT``'s, which the paper states
on a 0–1 scale), with the unknown ``num̂(q, DB)`` estimated by Eq. 4.2,

    num̂(q, DB) = |DB_local| · P(q, DM) / P(L_queried, DM),

``P(q, DM)`` smoothed per Eq. 4.3 with the ΔDM correction, and
``P(L_queried, DM)`` maintained incrementally with the Section 4.4
sorted-list union.

``Q_DT`` — domain-table values not yet seen in any result.  If such a
value exists in ``DB`` everything it returns is new (HR = 1); if not,
HR = 0; hence E[HR] = P(q ∈ DB | q ∈ DM), estimated by the domain
table's *hit rate* against the values discovered so far.

Selection compares the best of each group and issues the winner.  The
Section 4.4 lazy evaluation is implemented: ``Q_DB`` candidates are kept
in a heap keyed by the intermediate value ``num(q, DB_local) / P(q, DM)``
(monotone in the exact HR given the shared scale factor), so only the
heap top's exact harvest rate is ever computed per selection.
"""

from __future__ import annotations

import heapq
import math
import time
from collections import defaultdict
from typing import Dict, Optional

from repro.core.errors import CrawlError
from repro.core.query import ConjunctiveQuery
from repro.core.values import AttributeValue
from repro.crawler.prober import QueryOutcome
from repro.domain.table import DomainStatisticsTable, SortedIdUnion
from repro.policies.base import QuerySelector


class DomainKnowledgeSelector(QuerySelector):
    """The DM crawler of Section 4.

    Parameters
    ----------
    domain_table:
        Statistics from the same-domain sample (``DM``).
    smoothing:
        Apply the Eq. 4.3 ΔDM smoothing (ablation knob).
    initial_hit_rate:
        Optimistic prior for ``P(q ∈ DB | q ∈ DM)`` before any value
        has been discovered; 1.0 makes the crawler willing to open with
        domain-table queries, which is how the paper's Amazon crawl can
        proceed from a nearly empty local database.
    """

    def __init__(
        self,
        domain_table: DomainStatisticsTable,
        smoothing: bool = True,
        initial_hit_rate: float = 1.0,
    ) -> None:
        super().__init__()
        if not 0.0 <= initial_hit_rate <= 1.0:
            raise CrawlError("initial_hit_rate must be within [0, 1]")
        self.domain_table = domain_table
        self.smoothing = smoothing
        self.initial_hit_rate = initial_hit_rate

        # Q_DT: unseen domain values, most probable first.
        self._qdt_heap = [
            (-domain_table.count(value), index, value)
            for index, value in enumerate(domain_table.values())
        ]
        heapq.heapify(self._qdt_heap)
        self._seen_values: set[AttributeValue] = set()

        # Q_DB: discovered values, lazy heap on the intermediate score.
        self._qdb_heap: list[tuple[float, int, AttributeValue]] = []
        self._qdb_members: set[AttributeValue] = set()
        self._served: set[AttributeValue] = set()
        # A plain int tick (not itertools.count) so the heap tie-break
        # stream survives checkpoint/restore exactly.
        self._tiebreak = 0

        # ΔDM smoothing state (Eq. 4.3).
        self._delta_size = 0
        self._delta_counts: Dict[AttributeValue, int] = defaultdict(int)

        # Hit-rate estimate for Q_DT (Section 4.3).
        self._discovered_in_scope = 0
        self._discovered_in_dt = 0

        # P(L_queried, DM) via incremental sorted union (Section 4.4).
        self._matched_dm = SortedIdUnion(domain_table.size)

    @property
    def name(self) -> str:
        return "domain-knowledge"

    # ------------------------------------------------------------------
    # Candidate management
    # ------------------------------------------------------------------
    def add_candidate(self, value: AttributeValue) -> None:
        context = self._require_context()
        if value in self._seen_values:
            return
        self._seen_values.add(value)
        if value.attribute in self.domain_table.attributes:
            self._discovered_in_scope += 1
            if value in self.domain_table:
                self._discovered_in_dt += 1
        if value in context.queried_values or value in self._served:
            return
        self._push_qdb(value)

    def _push_qdb(self, value: AttributeValue, refresh: bool = False) -> None:
        if refresh:
            if value not in self._qdb_members:
                return
        elif value in self._qdb_members:
            return
        else:
            self._qdb_members.add(value)
        self._tiebreak += 1
        heapq.heappush(
            self._qdb_heap,
            (-self.harvest_rate_qdb(value), self._tiebreak, value),
        )

    # ------------------------------------------------------------------
    # Estimators
    # ------------------------------------------------------------------
    def smoothed_probability(self, value: AttributeValue) -> float:
        """Eq. 4.3: ``P(q, DM)`` with the ΔDM correction (when enabled)."""
        base_count = self.domain_table.count(value)
        if not self.smoothing:
            return base_count / self.domain_table.size
        return (self._delta_counts.get(value, 0) + base_count) / (
            self._delta_size + self.domain_table.size
        )

    def estimated_matches(self, value: AttributeValue) -> float:
        """Eq. 4.2: ``num̂(q, DB)``, or ``inf`` before DM coverage exists."""
        context = self._require_context()
        p_queried = self._matched_dm.fraction
        if p_queried == 0.0:
            return math.inf
        return len(context.local_db) * self.smoothed_probability(value) / p_queried

    def harvest_rate_qdb(self, value: AttributeValue) -> float:
        """Definition 2.5 harvest rate with ``num(q, DB)`` from Eq. 4.2.

        ``HR(q) = (num̂(q, DB) - num(q, DB_local)) / ceil(num̂(q, DB) / k)``
        — expected *new records per page*.  Eq. 4.1 states the
        large-result approximation ``k · (1 - local/num̂)``; keeping the
        page-rounding denominator matters at selection time because it
        is what separates a fresh 300-match hub (≈ 9.7 new/page) from a
        fresh 13-match value (≈ 6.5 new/page), both of which the
        approximation would score close to ``k``.
        """
        context = self._require_context()
        estimate = self.estimated_matches(value)
        if estimate == math.inf:
            return float(context.page_size)
        local = context.local_db.frequency(value)
        expected_new = estimate - local
        if expected_new <= 0.0:
            return 0.0
        pages = max(math.ceil(estimate / context.page_size), 1)
        return min(expected_new / pages, float(context.page_size))

    @property
    def hit_rate(self) -> float:
        """``P(q ∈ DB | q ∈ DM)`` estimated from discovery history."""
        if self._discovered_in_scope == 0:
            return self.initial_hit_rate
        return self._discovered_in_dt / self._discovered_in_scope

    def estimated_database_size(self) -> float:
        """``|DB_local| / P(L_queried, DM)`` — a size estimate for free."""
        context = self._require_context()
        fraction = self._matched_dm.fraction
        if fraction == 0.0:
            return math.inf
        return len(context.local_db) / fraction

    def intermediate_score(self, value: AttributeValue) -> float:
        """The Section 4.4 lazy-evaluation key: ``num(q, DB_local) / P(q, DM)``.

        Under the Eq. 4.1 approximation, exact HR is monotone decreasing
        in this value with the scale ``Ŝ`` shared by all of ``Q_DB``,
        letting the paper defer exact HR computation to the heap top
        alone.  Kept as the ablation alternative (and for tests of the
        monotonicity claim); the default selection heap keys on the full
        Definition 2.5 rate instead, which additionally accounts for
        page rounding.
        """
        context = self._require_context()
        probability = self.smoothed_probability(value)
        if probability <= 0.0:
            return math.inf
        return context.local_db.frequency(value) / probability

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def next_query(self) -> Optional[AttributeValue]:
        self._require_context()
        emit = self._trace_emit
        if emit is not None:
            wall0 = time.perf_counter()
            cpu0 = time.process_time()
        qdb_value = self._peek_qdb()
        qdt_value = self._peek_qdt()
        if emit is not None:
            # The lazy-heap freshen is DM's scoring work (Section 4.4):
            # re-keying stale harvest rates until the top is current.
            emit(
                "score",
                time.perf_counter() - wall0,
                time.process_time() - cpu0,
                {"qdb": len(self._qdb_heap), "qdt": len(self._qdt_heap)},
            )
        if qdb_value is None and qdt_value is None:
            return None
        if qdt_value is None:
            choice = qdb_value
        elif qdb_value is None:
            choice = qdt_value
        else:
            hr_db = self.harvest_rate_qdb(qdb_value)
            hr_dt = self.hit_rate
            choice = qdb_value if hr_db >= hr_dt else qdt_value
        assert choice is not None
        self._served.add(choice)
        if choice is qdb_value:
            heapq.heappop(self._qdb_heap)
            self._qdb_members.discard(choice)
        else:
            heapq.heappop(self._qdt_heap)
        return choice

    def _peek_qdb(self) -> Optional[AttributeValue]:
        """Freshen the heap top until its stored key is current, then peek.

        Harvest rates only fall while a value waits (its local count
        grows, the size estimate stabilizes), so stale entries
        *overestimate* and surface at the top, where they are re-keyed —
        the safe direction for a max-priority lazy heap.
        """
        context = self._require_context()
        while self._qdb_heap:
            key, tie, value = self._qdb_heap[0]
            if value in context.queried_values or value in self._served:
                heapq.heappop(self._qdb_heap)
                self._qdb_members.discard(value)
                continue
            fresh = -self.harvest_rate_qdb(value)
            if fresh > key + 1e-12:
                heapq.heapreplace(self._qdb_heap, (fresh, tie, value))
                continue
            return value
        return None

    def _peek_qdt(self) -> Optional[AttributeValue]:
        context = self._require_context()
        while self._qdt_heap:
            _key, _tie, value = self._qdt_heap[0]
            if (
                value in self._seen_values
                or value in context.queried_values
                or value in self._served
            ):
                heapq.heappop(self._qdt_heap)
                continue
            return value
        return None

    # ------------------------------------------------------------------
    # Feedback
    # ------------------------------------------------------------------
    def observe_outcome(self, outcome: QueryOutcome) -> None:
        # Values touched by this query's results changed their local
        # counts; re-key their pending heap entries so the ordering
        # tracks the fresh harvest rates.
        for pair in outcome.candidate_values:
            self._push_qdb(pair, refresh=True)
        # Maintain P(L_queried, DM): union the issued query's DM postings.
        query = outcome.query
        if isinstance(query, ConjunctiveQuery):
            # Conjunctions match the intersection of their predicates'
            # DM postings (sorted merge of a sorted intersection).
            posting_sets = [
                set(self.domain_table.postings(pair)) for pair in query.predicates
            ]
            if posting_sets and all(posting_sets):
                matched = sorted(set.intersection(*posting_sets))
                self._matched_dm.union(matched)
        elif query.is_keyword:
            # A keyword query matches any attribute; union postings of
            # every DM value sharing the string.
            for attribute in self.domain_table.attributes:
                pair = AttributeValue(attribute, query.value)
                self._matched_dm.union(self.domain_table.postings(pair))
        else:
            pair = query.as_attribute_value()
            self._matched_dm.union(self.domain_table.postings(pair))
        # Maintain ΔDM (Eq. 4.3): new records carrying any in-scope value
        # absent from DM join the correction sample.
        if not self.smoothing:
            return
        for record in outcome.new_records:
            in_scope = [
                pair
                for pair in record.attribute_values()
                if pair.attribute in self.domain_table.attributes
            ]
            if not in_scope:
                continue
            if any(pair not in self.domain_table for pair in in_scope):
                self._delta_size += 1
                for pair in in_scope:
                    self._delta_counts[pair] += 1

    # ------------------------------------------------------------------
    # Checkpoint state (see repro.runtime)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        from repro.runtime.serialize import encode_value

        # Both heap lists are stored verbatim: a snapshot of a valid heap
        # is itself a valid heap, so load needs no re-heapify and the
        # tie-break order is preserved bit for bit.
        return {
            "qdt_heap": [
                [key, tie, encode_value(value)]
                for key, tie, value in self._qdt_heap
            ],
            "qdb_heap": [
                [key, tie, encode_value(value)]
                for key, tie, value in self._qdb_heap
            ],
            "seen_values": [encode_value(v) for v in sorted(self._seen_values)],
            "qdb_members": [encode_value(v) for v in sorted(self._qdb_members)],
            "served": [encode_value(v) for v in sorted(self._served)],
            "tiebreak": self._tiebreak,
            "delta_size": self._delta_size,
            "delta_counts": [
                [encode_value(value), count]
                for value, count in sorted(self._delta_counts.items())
            ],
            "discovered_in_scope": self._discovered_in_scope,
            "discovered_in_dt": self._discovered_in_dt,
            "matched_dm": self._matched_dm.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        from repro.runtime.serialize import decode_value

        self._qdt_heap = [
            (key, tie, decode_value(value))
            for key, tie, value in state["qdt_heap"]
        ]
        self._qdb_heap = [
            (key, tie, decode_value(value))
            for key, tie, value in state["qdb_heap"]
        ]
        self._seen_values = {decode_value(v) for v in state["seen_values"]}
        self._qdb_members = {decode_value(v) for v in state["qdb_members"]}
        self._served = {decode_value(v) for v in state["served"]}
        self._tiebreak = state["tiebreak"]
        self._delta_size = state["delta_size"]
        self._delta_counts = defaultdict(int)
        for value, count in state["delta_counts"]:
            self._delta_counts[decode_value(value)] = count
        self._discovered_in_scope = state["discovered_in_scope"]
        self._discovered_in_dt = state["discovered_in_dt"]
        self._matched_dm.load_state(state["matched_dm"])

    def pending_count(self) -> int:
        return len(self._qdb_members) + len(self._qdt_heap)
