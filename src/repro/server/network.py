"""Communication accounting between crawler and simulated source.

The paper's only cost metric is the number of communication rounds
(result-page requests) between crawler and server.  The
:class:`CommunicationLog` counts them and nothing per request: which
query a page answered, and what it held, travels on the crawl's event
stream (:class:`~repro.runtime.events.PageFetched`) and its span trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class CommunicationLog:
    """The round counter of one source, plus two cheap side totals.

    A "round" is one page request, matching Definition 2.3.

    ``cache_hits`` / ``cache_misses`` count the server's result-ordering
    LRU cache behaviour (see
    :class:`~repro.server.webdb.SimulatedWebDatabase`): page 2+ of a
    query should be a hit, a re-ordered recomputation after eviction a
    miss — observable here because the cache exists to keep round
    serving cheap.

    ``total_wall_time`` / ``timed_rounds`` total the wire latency of
    the rounds that carried one; only the network lane passes a wall
    time to :meth:`record`.  Wall times are observational only: they are
    excluded from runtime snapshots, so canonical state — and hence
    resume byte-identity — never depends on them.
    """

    rounds: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    total_wall_time: float = 0.0
    timed_rounds: int = 0

    def record(self, wall_time: Optional[float] = None) -> None:
        """Count one page request; ``wall_time`` is its wire latency in
        seconds, when the transport measured one."""
        self.rounds += 1
        if wall_time is not None:
            self.total_wall_time += wall_time
            self.timed_rounds += 1

    def charge(self, rounds: int) -> None:
        """Charge rounds with no page request behind them.

        Used for simulated waiting — e.g. exponential-backoff delays
        between retries, which under the paper's cost model are paid in
        communication rounds.
        """
        self.rounds += rounds
