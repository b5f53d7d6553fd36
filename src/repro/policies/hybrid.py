"""Hybrid GL → MMMI policy with saturation switching (Sections 3.3, 5.2).

The paper uses MMMI *together with* the greedy link-based crawler: GL's
hub-following works remarkably well up to roughly 85% coverage, after
which attribute-value dependency dominates ("low marginal benefit") and
the crawler switches to MMMI ordering to squeeze out the marginal
content.  Two saturation triggers are provided:

- **oracle** — switch when true coverage crosses ``switch_coverage``
  (what the controlled experiment in Figure 4 does); requires the
  engine's coverage oracle.
- **harvest-rate heuristic** — switch when the mean realized harvest
  rate over the last ``window`` queries falls below
  ``min_harvest_rate`` new records per page, a stand-in for the paper's
  unspecified "set of heuristics"; works without ground truth.

Whichever trigger fires first flips the policy permanently.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.core.errors import CrawlError
from repro.core.values import AttributeValue
from repro.crawler.context import CrawlerContext
from repro.crawler.prober import QueryOutcome
from repro.policies.base import QuerySelector
from repro.policies.greedy import GreedyLinkSelector
from repro.policies.mmmi import MinMaxMutualInformationSelector


class SaturationDetector:
    """Sliding-window harvest-rate test for crawl saturation."""

    def __init__(self, window: int = 20, min_harvest_rate: float = 1.0) -> None:
        if window < 1:
            raise CrawlError(f"window must be >= 1, got {window}")
        self.window = window
        self.min_harvest_rate = min_harvest_rate
        self._rates: Deque[float] = deque(maxlen=window)

    def observe(self, outcome: QueryOutcome) -> None:
        self._rates.append(outcome.harvest_rate)

    @property
    def saturated(self) -> bool:
        """True once a full window averages under the threshold."""
        if len(self._rates) < self.window:
            return False
        return sum(self._rates) / len(self._rates) < self.min_harvest_rate

    def state_dict(self) -> dict:
        return {"rates": list(self._rates)}

    def load_state(self, state: dict) -> None:
        self._rates = deque(state["rates"], maxlen=self.window)


class GreedyMmmiSelector(QuerySelector):
    """GL until saturation, MMMI afterwards (the Figure 4 configuration).

    Parameters
    ----------
    switch_coverage:
        Oracle trigger level (paper: 0.85).  Set to ``None`` to rely on
        the harvest-rate heuristic alone.
    detector:
        Harvest-rate fallback trigger; pass ``None`` to disable and use
        the oracle alone.
    batch_size, aggregate:
        Forwarded to the inner MMMI selector.
    """

    requires_cooccurrence = True

    #: Sentinel distinguishing "default detector" from "no detector".
    _DEFAULT_DETECTOR = object()

    def __init__(
        self,
        switch_coverage: Optional[float] = 0.85,
        detector=_DEFAULT_DETECTOR,
        batch_size: int = 25,
        aggregate: str = "max",
        popularity_weight: float = 1.0,
    ) -> None:
        super().__init__()
        if detector is self._DEFAULT_DETECTOR:
            detector = SaturationDetector()
        if switch_coverage is None and detector is None:
            raise CrawlError("need at least one saturation trigger")
        self.switch_coverage = switch_coverage
        self.detector = detector
        self._greedy = GreedyLinkSelector()
        self._mmmi = MinMaxMutualInformationSelector(
            batch_size=batch_size,
            aggregate=aggregate,
            popularity_weight=popularity_weight,
        )
        self._switched = False

    @property
    def name(self) -> str:
        return "greedy-link+mmmi"

    @property
    def switched(self) -> bool:
        """Whether the MMMI phase has begun."""
        return self._switched

    def bind(self, context: CrawlerContext) -> None:
        super().bind(context)
        self._greedy.bind(context)
        self._mmmi.bind(context)

    def add_candidate(self, value: AttributeValue) -> None:
        # Both phases track all candidates; the engine filters values
        # the active phase re-proposes after the other already asked.
        self._greedy.add_candidate(value)
        self._mmmi.add_candidate(value)

    def next_query(self) -> Optional[AttributeValue]:
        self._maybe_switch()
        if self._switched:
            value = self._mmmi.next_query()
            if value is not None:
                return value
            # MMMI exhausted (it only sees decomposed values); fall back
            # so stragglers in the greedy frontier still get issued.
            return self._greedy.next_query()
        return self._greedy.next_query()

    def observe_outcome(self, outcome: QueryOutcome) -> None:
        # The greedy frontier must stay refreshed in both phases (it is
        # the pre-switch engine and the post-switch fallback).
        self._greedy.observe_outcome(outcome)
        if self.detector is not None and not self._switched:
            self.detector.observe(outcome)
        if self._switched:
            self._mmmi.observe_outcome(outcome)

    # ------------------------------------------------------------------
    # Checkpoint state (see repro.runtime)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        state = {
            "switched": self._switched,
            "greedy": self._greedy.state_dict(),
            "mmmi": self._mmmi.state_dict(),
        }
        if self.detector is not None:
            state["detector"] = self.detector.state_dict()
        return state

    def load_state(self, state: dict) -> None:
        self._switched = state["switched"]
        self._greedy.load_state(state["greedy"])
        self._mmmi.load_state(state["mmmi"])
        if self.detector is not None and "detector" in state:
            self.detector.load_state(state["detector"])

    def pending_count(self) -> int:
        return (
            self._mmmi.pending_count()
            if self._switched
            else self._greedy.pending_count()
        )

    def frontier_stats(self) -> Optional[dict]:
        """Both phases' frontier counters, summed (MMMI reports none)."""
        total: dict = {}
        for inner in (self._greedy, self._mmmi):
            for name, value in (inner.frontier_stats() or {}).items():
                total[name] = total.get(name, 0) + value
        return total or None

    # ------------------------------------------------------------------
    def _maybe_switch(self) -> None:
        if self._switched:
            return
        context = self._require_context()
        if self.switch_coverage is not None:
            coverage = context.estimated_coverage()
            if coverage is not None and coverage >= self.switch_coverage:
                self._switched = True
                return
        if self.detector is not None and self.detector.saturated:
            self._switched = True
