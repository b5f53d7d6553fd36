"""Min-Max Mutual-Information query selection — MMMI (Section 3.3).

GL's weakness is that popularity ignores *dependency*: once one
frequent co-author is queried, the other's results are mostly
duplicates.  MMMI scores each candidate ``q_i`` by its maximum pointwise
mutual information against the already-issued queries (Definition 3.1)

    s(q_i) = max_{q_j in L_queried} ln P(q_i, q_j | DB_local)
                                     / (P(q_i|DB_local) P(q_j|DB_local))

and serves candidates in *ascending* ``s`` — penalizing values strongly
correlated with anything already asked.  ``max`` (rather than a weighted
sum) is chosen to avoid single bad decisions, echoing query-optimizer
common wisdom; a linear-weighted alternative is provided for the
ablation bench (``aggregate="mean"``).

Because recomputing dependencies after every harvested record would be
prohibitive, the paper prescribes *batch mode*: scores are recomputed
once per ``batch_size`` issued queries.  The implementation exploits the
graph structure to keep each recompute cheap: PMI is ``-inf`` unless the
pair co-occurs, so only a candidate's ``G_local`` neighbours that were
already queried can contribute to its max.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import Dict, List, Optional

from repro.core.errors import CrawlError
from repro.core.values import AttributeValue
from repro.crawler.prober import QueryOutcome
from repro.policies import vectorized
from repro.policies.base import QuerySelector

AGGREGATES = ("max", "mean")


class MinMaxMutualInformationSelector(QuerySelector):
    """Dependency-aware selection for the low-marginal-benefit regime.

    Parameters
    ----------
    batch_size:
        Queries issued between dependency recomputations (paper §3.3's
        batch-mode operation).
    aggregate:
        ``"max"`` (Definition 3.1) or ``"mean"`` (the linear-weighted
        alternative the paper mentions), over the issued queries that
        co-occur with the candidate.
    tie_break_degree:
        Among equally (in)dependent candidates — in particular the many
        with no co-occurrence at all (score ``-inf``) — prefer higher
        local degree, keeping GL's productivity signal as a secondary
        key.

    With ``aggregate="max"`` on a co-occurrence-tracking interned
    database, the recompute runs the numpy queried-major kernel
    (:func:`repro.policies.vectorized.mmmi_best_ratios`); ``mean``, and
    any database the kernel cannot serve, take the scalar loop.  The
    kernel is bit-identical to the scalar path: the crawl-level identity
    tests compare it against
    :class:`~repro.crawler.reference.ReferenceLocalDatabase`.
    """

    requires_cooccurrence = True

    def __init__(
        self,
        batch_size: int = 25,
        aggregate: str = "max",
        tie_break_degree: bool = True,
        popularity_weight: float = 1.0,
    ) -> None:
        super().__init__()
        if batch_size < 1:
            raise CrawlError(f"batch_size must be >= 1, got {batch_size}")
        if aggregate not in AGGREGATES:
            raise CrawlError(f"aggregate must be one of {AGGREGATES}")
        if popularity_weight < 0:
            raise CrawlError("popularity_weight must be >= 0")
        self.batch_size = batch_size
        self.aggregate = aggregate
        self.tie_break_degree = tie_break_degree
        self.popularity_weight = popularity_weight
        # Candidate values mapped to their cached interned id (None
        # until the value is first seen in a harvested record); dict
        # order is insertion order but never influences selection — the
        # recompute's final key ends on the AttributeValue itself.
        self._candidates: Dict[AttributeValue, Optional[int]] = {}
        self._ordered: List[AttributeValue] = []
        self._since_recompute = 0

    @property
    def name(self) -> str:
        return "mmmi"

    # ------------------------------------------------------------------
    def add_candidate(self, value: AttributeValue) -> None:
        context = self._require_context()
        if value in context.queried_values:
            return
        if value not in self._candidates:
            self._candidates[value] = None

    def add_candidate_id(self, vid: int, value: AttributeValue) -> None:
        """Id-accompanied add: cache the interned id for the recompute.

        The engine has already filtered already-queried ids, but the
        value guard is kept so direct callers get :meth:`add_candidate`
        semantics exactly.
        """
        context = self._require_context()
        if value in context.queried_values:
            return
        self._candidates[value] = vid

    def next_query(self) -> Optional[AttributeValue]:
        self._require_context()
        if not self._ordered or self._since_recompute >= self.batch_size:
            self._recompute()
        while self._ordered:
            value = self._ordered.pop()
            if value in self._candidates:
                del self._candidates[value]
                self._since_recompute += 1
                return value
        # The ordered list went stale and empty; one recompute may still
        # surface candidates added after the last batch boundary.
        self._recompute()
        if not self._ordered:
            return None
        value = self._ordered.pop()
        self._candidates.pop(value, None)
        self._since_recompute += 1
        return value

    def observe_outcome(self, outcome: QueryOutcome) -> None:
        # Dependency scores shift as DB_local grows; the batch counter in
        # next_query already schedules the recompute, nothing to do here.
        return

    def state_dict(self) -> dict:
        from repro.runtime.serialize import encode_value

        return {
            "candidates": [encode_value(v) for v in sorted(self._candidates)],
            "ordered": [encode_value(v) for v in self._ordered],
            "since_recompute": self._since_recompute,
        }

    def load_state(self, state: dict) -> None:
        from repro.runtime.serialize import decode_value

        # Ids are not serialized (the payload predates the cache and
        # stays schema-stable); they re-resolve at the next recompute.
        self._candidates = dict.fromkeys(
            decode_value(v) for v in state["candidates"]
        )
        self._ordered = [decode_value(v) for v in state["ordered"]]
        self._since_recompute = state["since_recompute"]

    def pending_count(self) -> int:
        return len(self._candidates)

    # ------------------------------------------------------------------
    def dependency_score(self, value: AttributeValue) -> float:
        """``s(q_i, L_queried)`` of Definition 3.1 (or its mean variant).

        Only ``G_local`` neighbours of ``value`` that were already
        queried can co-occur with it, so the max/mean runs over that
        intersection; no co-occurring issued query yields ``-inf``
        (an entirely independent candidate — the best possible score).
        """
        context = self._require_context()
        local = context.local_db
        # Set intersection iterates the smaller operand: cheap even when
        # the candidate is a hub with thousands of local neighbours.
        queried_neighbors = local.neighbors(value) & context.queried_values
        if not queried_neighbors:
            return -math.inf
        pmis = [local.pmi(value, n) for n in queried_neighbors]
        pmis = [p for p in pmis if p != -math.inf]
        if not pmis:
            return -math.inf
        if self.aggregate == "max":
            return max(pmis)
        return sum(pmis) / len(pmis)

    def selection_score(self, value: AttributeValue) -> float:
        """The full MMMI ranking key, lower = issued earlier.

        ``s(q_i) - w · ln(1 + degree(q_i))``: the Definition 3.1
        dependency penalty, discounted by log-popularity (both terms are
        log-scale).  ``popularity_weight = 0`` is the pure
        Definition 3.1 ordering; the default of 1 realizes the paper's
        "MMMI is used together with the greedy link-based approach" —
        among comparably popular candidates, strong dependency pushes a
        value back, instead of independence alone promoting the frontier's
        singleton tail.
        """
        context = self._require_context()
        score = self.dependency_score(value)
        if score == -math.inf:
            score = 0.0  # independent; judged on popularity alone
        if self.popularity_weight == 0.0:
            return score
        degree = context.local_db.degree(value)
        return score - self.popularity_weight * math.log1p(degree)

    def _recompute(self) -> None:
        """Sort pending candidates by the selection score.

        ``self._ordered`` is consumed from the tail, so it is stored
        descending: the *last* element is the best (lowest-score)
        candidate.

        An interned local database gets the id-indexed pass below; any
        other database falls back to the public value-keyed API.  Both
        produce the same ordering: scores are identical arithmetic and
        the final tie-break key is the :class:`AttributeValue` itself
        (ids are first-seen order, not lexicographic, so they must never
        leak into the sort key).
        """
        emit = self._trace_emit
        if emit is not None:
            wall0 = time.perf_counter()
            cpu0 = time.process_time()
        context = self._require_context()
        local = context.local_db
        if hasattr(local, "interner"):
            self._ordered = self._order_interned(local, context)
        else:
            def sort_key(value: AttributeValue):
                degree = local.degree(value) if self.tie_break_degree else 0
                # Descending score first (tail = smallest); among equals,
                # ascending degree (tail = largest degree).
                return (-self.selection_score(value), degree, value)

            self._ordered = sorted(self._candidates, key=sort_key)
        self._since_recompute = 0
        if emit is not None:
            emit(
                "score",
                time.perf_counter() - wall0,
                time.process_time() - cpu0,
                {"candidates": len(self._ordered)},
            )

    def _order_interned(self, local, context) -> List[AttributeValue]:
        """The batch recompute on dense ids — the MMMI hot loop.

        One interner lookup per queried value; candidate ids are cached
        at discovery (:meth:`add_candidate_id`), so candidates hash only
        until first resolved.  With ``aggregate="max"`` on a
        co-occurrence-tracking database the per-candidate dependency
        maxes run queried-major through
        :func:`repro.policies.vectorized.mmmi_best_ratios`; otherwise
        the scalar loop iterates candidate-major over the same pairs.
        Both produce identical keys (see :mod:`repro.policies.vectorized`
        for the exactness argument), and only the top ``batch_size``
        keys can be consumed before the next recompute, so a bounded
        ``heapq.nlargest`` replaces the full sort — keys are unique
        (final tie-break is the value itself), making the selection
        independent of candidate iteration order.

        The batch is held as parallel lists (values, ids, negated
        scores, tie-break degrees) and ranked by index: a key tuple
        lives only while ``nlargest`` compares it, so no per-candidate
        container survives long enough for the collector to promote it
        into the old generation (DESIGN.md §6, item 8).
        """
        lookup = local.value_id
        queried_ids = {
            vid
            for vid in map(lookup, context.queried_values)
            if vid is not None
        }
        candidates = self._candidates
        values: List[AttributeValue] = []
        ids: List[int] = []
        unseen: List[AttributeValue] = []
        for value, vid in candidates.items():
            if vid is None:
                vid = lookup(value)
                if vid is None:
                    unseen.append(value)
                    continue
                candidates[value] = vid
            values.append(value)
            ids.append(vid)
        use_max = self.aggregate == "max"
        if use_max and vectorized.supports_mmmi(local):
            # log(max ratio) == max(log ratio): one scalar math.log per
            # candidate keeps libm bit-identity with the scalar path.
            # Ratio 0 is the no-co-occurrence sentinel.
            log = math.log
            scores = [
                log(ratio) if ratio > 0.0 else 0.0
                for ratio in vectorized.mmmi_best_ratios(
                    local, queried_ids, ids
                )
            ]
        else:
            dependency_score = local.dependency_score_ids
            neg_inf = -math.inf
            scores = []
            for vid in ids:
                score = dependency_score(vid, queried_ids, use_max)
                # -inf: independent; judged on popularity alone.
                scores.append(0.0 if score == neg_inf else score)
        degrees = list(map(local.degree_id, ids))
        weight = self.popularity_weight
        log1p = math.log1p
        neg_scores = [
            -(score - weight * log1p(degree))
            for score, degree in zip(scores, degrees)
        ]
        ties = degrees if self.tie_break_degree else [0] * len(ids)
        # Never seen in a harvested record: no neighbours, no degree —
        # fully independent, judged at score 0.
        values += unseen
        neg_scores += [0.0] * len(unseen)
        ties += [0] * len(unseen)

        def key(i: int):
            return (neg_scores[i], ties[i], values[i])

        take = self.batch_size
        if len(values) <= take:
            order = sorted(range(len(values)), key=key)
        else:
            order = heapq.nlargest(take, range(len(values)), key=key)
            order.reverse()  # ascending; consumed best-first from the tail
        return [values[i] for i in order]
