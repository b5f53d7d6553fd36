"""Result-size limit and request-rate policies.

Most web databases cap how many results of a query can actually be
retrieved — Amazon's web service stops at 3,200 records; Yahoo! Autos
"may claim 5000 matches" yet serve only the first 20 pages.  The cap
interacts with *which* records are served: a site returns its top-ranked
matches, not a uniform sample.  A :class:`ResultLimitPolicy` bundles the
cap with the ranking used to choose the accessible prefix (Section 5.4).

Real sources also throttle *how fast* clients may ask: the
:class:`RateLimiter` enforces a per-client sliding-window request quota
with optional temporary bans for clients that keep hammering a closed
window.  The network front end (:mod:`repro.net.server`) consults it
per query request and converts denials into HTTP 429 responses whose
``Retry-After`` equals the limiter's actual reset time.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.core.errors import QueryError
from repro.core.query import AnyQuery, ConjunctiveQuery


def _query_key(query: AnyQuery) -> str:
    """A stable string identifying a query for ranking purposes."""
    if isinstance(query, ConjunctiveQuery):
        return "&".join(f"{p.attribute}={p.value}" for p in query.predicates)
    return f"{query.attribute}:{query.value}"

#: Ordering choices for the accessible prefix of a result list.
ORDERINGS = ("id", "ranked")


@dataclass(frozen=True)
class ResultLimitPolicy:
    """How a source truncates large result sets.

    Parameters
    ----------
    limit:
        Maximum records served per query (``None`` = unlimited).  The
        paper's Amazon experiments use 3200, 50, and 10.
    ordering:
        ``"id"`` serves matches in record-id order (stable, like a
        date-sorted listing); ``"ranked"`` applies a deterministic
        per-query pseudo-random ranking, modelling relevance ranking
        uncorrelated with record ids.
    seed:
        Ranking seed, so experiments are reproducible.
    """

    limit: Optional[int] = None
    ordering: str = "id"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.limit is not None and self.limit < 1:
            raise QueryError(f"result limit must be >= 1, got {self.limit}")
        if self.ordering not in ORDERINGS:
            raise QueryError(
                f"unknown ordering {self.ordering!r}; expected one of {ORDERINGS}"
            )

    def order(self, query: AnyQuery, match_ids: List[int]) -> List[int]:
        """Order a match list according to the policy (without truncating).

        The ranked ordering is a deterministic function of (seed, query,
        record id) so repeated requests for the same query always see
        the same ranking, as a real ranked source would show.
        """
        if self.ordering == "id":
            return sorted(match_ids)
        query_key = _query_key(query)

        def rank(record_id: int) -> str:
            key = f"{self.seed}:{query_key}:{record_id}"
            return hashlib.md5(key.encode("utf-8")).hexdigest()

        return sorted(match_ids, key=rank)

    def accessible(self, n_matches: int) -> int:
        """How many of ``n_matches`` records the source will serve."""
        if self.limit is None:
            return n_matches
        return min(n_matches, self.limit)


@dataclass(frozen=True)
class RateLimitDecision:
    """Outcome of one admission check.

    ``retry_after`` is the number of seconds after which the *same*
    request is guaranteed to be admitted (the limiter's actual reset
    time, not a guess): the moment the oldest in-window request falls
    out of the window, or the moment a ban expires.  0.0 when allowed.
    """

    allowed: bool
    retry_after: float = 0.0
    banned: bool = False


class RateLimiter:
    """Per-client sliding-window request quota with temporary bans.

    A client may make at most ``max_requests`` requests in any
    ``window_seconds``-long interval.  A denied request does not count
    against the window (a polite client retrying after ``retry_after``
    is not penalized for having asked), but each denial counts as a
    *violation*; ``ban_after`` consecutive violations earn the client a
    ``ban_seconds`` ban, during which every request is denied with the
    ban's remaining time as ``retry_after``.  An admitted request
    resets the violation count — only sustained hammering escalates.

    All state is guarded by one lock: a cluster worker's control thread
    reads :meth:`runtime_state` (snapshots, the debug plane) while the
    worker's event loop admits requests, and tests hit the limiter from
    many threads at once.

    ``clock`` is injectable (monotonic seconds) so tests can step time
    exactly; production uses :func:`time.monotonic`.
    """

    def __init__(
        self,
        max_requests: int,
        window_seconds: float,
        ban_after: int = 0,
        ban_seconds: float = 0.0,
        clock=time.monotonic,
    ) -> None:
        if max_requests < 1:
            raise QueryError(f"max_requests must be >= 1, got {max_requests}")
        if window_seconds <= 0:
            raise QueryError(
                f"window_seconds must be > 0, got {window_seconds}"
            )
        if ban_after > 0 and ban_seconds <= 0:
            raise QueryError("ban_after requires ban_seconds > 0")
        self.max_requests = max_requests
        self.window_seconds = window_seconds
        self.ban_after = ban_after
        self.ban_seconds = ban_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._windows: Dict[str, Deque[float]] = {}
        self._violations: Dict[str, int] = {}
        self._banned_until: Dict[str, float] = {}
        self.denials = 0
        self.bans_issued = 0

    def check(self, client: str) -> RateLimitDecision:
        """Admit or deny one request from ``client`` right now."""
        with self._lock:
            now = self._clock()
            banned_until = self._banned_until.get(client)
            if banned_until is not None:
                if now < banned_until:
                    self.denials += 1
                    return RateLimitDecision(
                        allowed=False,
                        retry_after=banned_until - now,
                        banned=True,
                    )
                # Ban expired: the client starts from a clean slate.
                del self._banned_until[client]
                self._windows.pop(client, None)
                self._violations.pop(client, None)
            window = self._windows.get(client)
            if window is None:
                window = self._windows[client] = deque()
            horizon = now - self.window_seconds
            while window and window[0] <= horizon:
                window.popleft()
            if len(window) < self.max_requests:
                window.append(now)
                self._violations.pop(client, None)
                return RateLimitDecision(allowed=True)
            self.denials += 1
            retry_after = window[0] + self.window_seconds - now
            if self.ban_after > 0:
                violations = self._violations.get(client, 0) + 1
                self._violations[client] = violations
                if violations >= self.ban_after:
                    self.bans_issued += 1
                    self._banned_until[client] = now + self.ban_seconds
                    self._violations.pop(client, None)
                    return RateLimitDecision(
                        allowed=False,
                        retry_after=self.ban_seconds,
                        banned=True,
                    )
            return RateLimitDecision(allowed=False, retry_after=retry_after)

    def peek(self, client: str) -> RateLimitDecision:
        """Answer "would a request from ``client`` be admitted right now?"

        Unlike :meth:`check`, this is side-effect free: no admission
        timestamp is recorded, no violation counted, no ban escalated,
        and no denial tallied.  Schedulers use it to *select* among
        sources without spending quota on sources they then don't step
        (the fleet scheduler peeks every candidate per decision and
        checks only the winner).
        """
        with self._lock:
            now = self._clock()
            banned_until = self._banned_until.get(client)
            if banned_until is not None and now < banned_until:
                return RateLimitDecision(
                    allowed=False,
                    retry_after=banned_until - now,
                    banned=True,
                )
            window = self._windows.get(client)
            if window is None:
                return RateLimitDecision(allowed=True)
            horizon = now - self.window_seconds
            live = len(window)
            oldest = None
            for stamp in window:
                if stamp <= horizon:
                    live -= 1
                else:
                    oldest = stamp
                    break
            if live < self.max_requests:
                return RateLimitDecision(allowed=True)
            return RateLimitDecision(
                allowed=False,
                retry_after=oldest + self.window_seconds - now,
            )

    def runtime_state(self) -> dict:
        """Checkpointable dynamic state (windows, violations, bans).

        Timestamps are whatever the injected ``clock`` produced, so the
        state only round-trips meaningfully under a deterministic clock
        (the fleet's simulated time); under ``time.monotonic`` it is
        still captured but a restore into a new process is a fresh
        epoch.  Configuration (``max_requests`` etc.) is rebuilt by the
        caller, mirroring the engine/scheduler checkpoint convention.
        """
        with self._lock:
            return {
                "windows": {
                    client: list(window)
                    for client, window in sorted(self._windows.items())
                },
                "violations": dict(sorted(self._violations.items())),
                "banned_until": dict(sorted(self._banned_until.items())),
                "denials": self.denials,
                "bans_issued": self.bans_issued,
            }

    def load_runtime_state(self, state: dict) -> None:
        """Restore a :meth:`runtime_state` snapshot."""
        with self._lock:
            self._windows = {
                client: deque(stamps)
                for client, stamps in state["windows"].items()
            }
            self._violations = dict(state["violations"])
            self._banned_until = dict(state["banned_until"])
            self.denials = state["denials"]
            self.bans_issued = state["bans_issued"]

    def reset(self, client: Optional[str] = None) -> None:
        """Forget one client's state (or everyone's, with no argument)."""
        with self._lock:
            if client is None:
                self._windows.clear()
                self._violations.clear()
                self._banned_until.clear()
            else:
                self._windows.pop(client, None)
                self._violations.pop(client, None)
                self._banned_until.pop(client, None)


@dataclass(frozen=True)
class RateLimiterSpec:
    """Picklable :class:`RateLimiter` configuration.

    A :class:`RateLimiter` carries a ``threading.Lock`` and an injected
    clock, so it cannot cross a process boundary; the cluster ships
    this spec to each worker instead and every worker builds its own
    limiter.  (Each worker then enforces the quota independently —
    connections from one client may land on different workers, so a
    clustered deployment's effective quota is up to ``workers ×``
    the single-process quota.  Documented, deliberate: politeness is a
    per-server-process property in the simulation.)
    """

    max_requests: int
    window_seconds: float
    ban_after: int = 0
    ban_seconds: float = 0.0

    @classmethod
    def from_limiter(cls, limiter: RateLimiter) -> "RateLimiterSpec":
        return cls(
            max_requests=limiter.max_requests,
            window_seconds=limiter.window_seconds,
            ban_after=limiter.ban_after,
            ban_seconds=limiter.ban_seconds,
        )

    def build(self, clock=time.monotonic) -> RateLimiter:
        return RateLimiter(
            max_requests=self.max_requests,
            window_seconds=self.window_seconds,
            ban_after=self.ban_after,
            ban_seconds=self.ban_seconds,
            clock=clock,
        )


def merge_runtime_states(states: List[dict]) -> dict:
    """Fold per-worker :meth:`RateLimiter.runtime_state` snapshots.

    Deterministic given the input order (the cluster control plane
    collects snapshots in fixed worker order): per-client windows are
    concatenated and sorted, violations summed, the latest ban wins,
    and the denial/ban tallies add up.
    """
    windows: Dict[str, List[float]] = {}
    violations: Dict[str, int] = {}
    banned_until: Dict[str, float] = {}
    denials = 0
    bans_issued = 0
    for state in states:
        for client, stamps in state["windows"].items():
            windows.setdefault(client, []).extend(stamps)
        for client, count in state["violations"].items():
            violations[client] = violations.get(client, 0) + count
        for client, until in state["banned_until"].items():
            banned_until[client] = max(
                banned_until.get(client, float("-inf")), until
            )
        denials += state["denials"]
        bans_issued += state["bans_issued"]
    return {
        "windows": {
            client: sorted(stamps)
            for client, stamps in sorted(windows.items())
        },
        "violations": dict(sorted(violations.items())),
        "banned_until": dict(sorted(banned_until.items())),
        "denials": denials,
        "bans_issued": bans_issued,
    }
