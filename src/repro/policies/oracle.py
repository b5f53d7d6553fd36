"""Omniscient oracle selector — the offline dominating-set baseline.

Definition 2.4 frames optimal query selection as a Weighted Minimum
Dominating Set problem that an online crawler cannot solve for lack of
the "big picture".  For calibration, this selector *is given* the big
picture: the target's full table.  It precomputes a greedy weighted
record-cover plan (the classical ln(n)-approximation of the optimal
plan, over the true record sets and true page costs) and simply replays
it.  No online policy should beat it by more than greedy's
approximation slack, which makes it the upper-bound series in the
ablation benches.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.core.table import RelationalTable
from repro.core.values import AttributeValue
from repro.policies.base import QuerySelector


class OracleSelector(QuerySelector):
    """Replays an offline greedy set-cover plan computed on ground truth.

    Parameters
    ----------
    table:
        The target's true universal table (the knowledge a real crawler
        never has).
    page_size:
        ``k``, to weight each candidate query by its true page cost.
    queriable_only:
        Restrict the plan to values of queriable attributes (must be
        True unless the interface supports keywords).
    """

    def __init__(
        self, table: RelationalTable, page_size: int = 10, queriable_only: bool = True
    ) -> None:
        super().__init__()
        # Deferred: repro.graph brings networkx, which no online policy
        # needs, and every crawl imports this module via repro.policies.
        from repro.graph.dominating import greedy_record_cover

        attributes = (
            set(table.schema.queriable) if queriable_only else set(table.schema.names)
        )
        value_to_records = {}
        costs = {}
        for value in table.distinct_values():
            if value.attribute not in attributes:
                continue
            records = frozenset(table.match_equality(value.attribute, value.value))
            value_to_records[value] = records
            costs[value] = float(max(math.ceil(len(records) / page_size), 1))
        self._plan: List[AttributeValue] = greedy_record_cover(
            value_to_records, costs
        )
        self._cursor = 0

    @property
    def name(self) -> str:
        return "oracle"

    @property
    def plan(self) -> List[AttributeValue]:
        """The full offline plan, in replay order."""
        return list(self._plan)

    def add_candidate(self, value: AttributeValue) -> None:
        # The oracle already knows everything; discoveries are ignored.
        return

    def next_query(self) -> Optional[AttributeValue]:
        if self._cursor >= len(self._plan):
            return None
        value = self._plan[self._cursor]
        self._cursor += 1
        return value

    def state_dict(self) -> dict:
        # The plan is rebuilt from the table at construction; only the
        # replay position is dynamic state.
        return {"cursor": self._cursor}

    def load_state(self, state: dict) -> None:
        self._cursor = state["cursor"]

    def pending_count(self) -> int:
        return len(self._plan) - self._cursor
