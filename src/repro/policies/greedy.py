"""Greedy relational-link-based selection — GL (Section 3.2).

Motivated by the power-law degree distribution of real attribute-value
graphs, GL estimates a candidate's harvest rate as proportional to its
degree in the local graph ``G_local`` and always visits the
highest-degree frontier value: hub values link to a large share of the
database and uncover its "dense portion" quickly.

The implementation leans on :class:`PriorityFrontier`'s lazy
re-scoring, which is exact here because a value's local degree only
grows as records arrive.

A frequency-scored variant (:class:`GreedyFrequencySelector`) is
included for the ablation benches: it ranks by ``num(q, DB_local)``
(popularity in records) instead of graph degree.  On single-valued
schemas the two signals correlate strongly; multi-valued attributes
pull them apart.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.core.values import AttributeValue
from repro.crawler.context import CrawlerContext
from repro.crawler.frontier import InternedPriorityFrontier, PriorityFrontier
from repro.crawler.prober import QueryOutcome
from repro.policies.base import QuerySelector


class _PrioritySelector(QuerySelector):
    """Shared plumbing for score-maximizing selectors.

    Every query's results change the scores of the values they contain,
    so ``observe_outcome`` refreshes exactly those frontier entries —
    marking them dirty for the frontier's next-pop batch rescore —
    keeping the priority frontier's view of ``G_local`` current without
    rescoring the whole frontier.

    When the bound local database exposes an interner (the default
    :class:`~repro.crawler.localdb.LocalDatabase`), the frontier runs on
    dense int ids and the id-indexed score arrays.  A database without
    an interner (e.g. the differential
    :class:`~repro.crawler.reference.ReferenceLocalDatabase`) gets the
    original value-keyed frontier.  Pop order is identical either way —
    the crawl-level identity tests and the hot-path benchmark depend on
    it.

    Parameters
    ----------
    full_rescore_every:
        Forwarded to :class:`InternedPriorityFrontier` — rescore the
        whole pending set every Nth flush (0 = never; the differential
        tests pin ``1`` against the default).
    """

    def __init__(self, full_rescore_every: int = 0) -> None:
        super().__init__()
        self.full_rescore_every = full_rescore_every

    def _score(self, value: AttributeValue) -> float:
        raise NotImplementedError

    def _score_id_fn(self, local):
        """Id-indexed score function over an interned local database."""
        raise NotImplementedError

    def bind(self, context: CrawlerContext) -> None:
        super().bind(context)
        local = context.local_db
        if hasattr(local, "interner"):
            self._frontier = InternedPriorityFrontier(
                self._score_id_fn(local),
                local.intern_value,
                local.value_id,
                local.interner.value,
                full_rescore_every=self.full_rescore_every,
            )
        else:
            self._frontier = PriorityFrontier(self._score)

    def add_candidate(self, value: AttributeValue) -> None:
        self._require_context()
        self._frontier.push(value)

    def add_candidate_id(self, vid: int, value: AttributeValue) -> None:
        self._require_context()
        frontier = self._frontier
        if isinstance(frontier, InternedPriorityFrontier):
            frontier.push_id(vid)
        else:
            frontier.push(value)

    def next_query(self) -> Optional[AttributeValue]:
        self._require_context()
        return self._frontier.pop()

    def observe_outcome(self, outcome: QueryOutcome) -> None:
        emit = self._trace_emit
        if emit is not None:
            wall0 = time.perf_counter()
            cpu0 = time.process_time()
        frontier = self._frontier
        candidate_ids = outcome.candidate_ids
        if candidate_ids is not None and isinstance(
            frontier, InternedPriorityFrontier
        ):
            refreshed = len(candidate_ids)
            refresh_id = frontier.refresh_id
            for vid in candidate_ids:
                refresh_id(vid)
        else:
            refreshed = len(outcome.candidate_values)
            frontier.refresh_all(outcome.candidate_values)
        if emit is not None:
            emit(
                "frontier-refresh",
                time.perf_counter() - wall0,
                time.process_time() - cpu0,
                {"refreshed": refreshed},
            )

    def state_dict(self) -> dict:
        return {"frontier": self._frontier.state_dict()}

    def load_state(self, state: dict) -> None:
        self._frontier.load_state(state["frontier"])

    def pending_count(self) -> int:
        return len(self._frontier)

    def frontier_stats(self) -> Optional[dict]:
        frontier = self._frontier
        if isinstance(frontier, InternedPriorityFrontier):
            return {"pending": len(frontier), **frontier.stats}
        return None


class GreedyLinkSelector(_PrioritySelector):
    """Pick the frontier value with the greatest degree in ``G_local``."""

    @property
    def name(self) -> str:
        return "greedy-link"

    def _score(self, value: AttributeValue) -> float:
        return float(self._require_context().local_db.degree(value))

    def _score_id_fn(self, local):
        degree_id = local.degree_id
        return lambda vid: float(degree_id(vid))


class GreedyFrequencySelector(_PrioritySelector):
    """Ablation variant: rank candidates by local match count instead."""

    @property
    def name(self) -> str:
        return "greedy-frequency"

    def _score(self, value: AttributeValue) -> float:
        return float(self._require_context().local_db.frequency(value))

    def _score_id_fn(self, local):
        frequency_id = local.frequency_id
        return lambda vid: float(frequency_id(vid))
