"""Failure injection: a transiently failing web source.

Real web sources time out, rate-limit, and return 5xx pages; a crawler
that cannot absorb transient failures never finishes a million-round
crawl.  :class:`FlakyServer` wraps a
:class:`~repro.server.webdb.SimulatedWebDatabase` and makes each page
request fail with a configurable probability — and, faithfully to the
paper's cost model, *a failed request still costs a communication
round* (the bytes crossed the wire).  The prober's retry loop lives in
:func:`submit_with_retries`, which both the flaky tests and a
production adaptation would use.

Retries optionally back off exponentially with jitter
(:class:`ExponentialBackoff`).  There is no wall clock in the
simulation, so a backoff delay is *simulated*: the jittered delay is
computed from the caller's RNG (making the stream checkpointable) and
charged to the communication log through a configurable
``backoff_cost`` hook — under the paper's cost model, waiting out a
rate limiter costs rounds you could have spent fetching pages.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.errors import ReproError
from repro.core.query import AnyQuery
from repro.server.pagination import ResultPage
from repro.server.webdb import SimulatedWebDatabase


class TransientServerError(ReproError):
    """A retryable failure (timeout, 5xx, connection reset)."""


class PermanentServerFailure(ReproError):
    """Retries exhausted — the request could not be completed."""


@dataclass(frozen=True)
class ExponentialBackoff:
    """Exponential backoff with uniform jitter, in simulated seconds.

    The delay before retry ``n`` (1-based) is

        min(base_delay · multiplier^(n-1), max_delay) · U

    with ``U`` uniform in ``[1 - jitter, 1 + jitter]`` drawn from the
    caller's RNG (no jitter when no RNG is supplied).

    ``backoff_cost`` maps a delay in seconds to communication rounds to
    charge while waiting (``None`` — the default — charges nothing and
    keeps the delay purely observational).  A typical choice is
    ``lambda delay: math.ceil(delay / seconds_per_round)``;
    :meth:`charging` builds one.
    """

    base_delay: float = 1.0
    multiplier: float = 2.0
    max_delay: float = 60.0
    jitter: float = 0.5
    backoff_cost: Optional[Callable[[float], int]] = None

    def __post_init__(self) -> None:
        if self.base_delay <= 0:
            raise ValueError(f"base_delay must be > 0, got {self.base_delay}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if self.max_delay < self.base_delay:
            raise ValueError("max_delay must be >= base_delay")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    @classmethod
    def charging(cls, seconds_per_round: float = 1.0, **kwargs) -> "ExponentialBackoff":
        """A backoff whose waits are paid in rounds (ceil of the delay)."""
        return cls(
            backoff_cost=lambda delay: math.ceil(delay / seconds_per_round),
            **kwargs,
        )

    def delay(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Jittered delay before the ``attempt``-th retry (1-based)."""
        raw = min(self.base_delay * self.multiplier ** (attempt - 1), self.max_delay)
        if rng is not None and self.jitter > 0.0:
            raw *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return raw

    def cost(self, delay: float) -> int:
        """Rounds to charge for waiting out ``delay`` (0 when not charging)."""
        if self.backoff_cost is None:
            return 0
        return max(int(self.backoff_cost(delay)), 0)


class FlakyServer:
    """A source whose page requests fail transiently.

    Parameters
    ----------
    server:
        The underlying (reliable) simulated source.
    failure_rate:
        Probability that any single page request fails.
    seed:
        Seeds the failure stream, so runs are reproducible.
    charge_failed_rounds:
        Whether failed requests consume communication rounds (default
        True — a timeout is not free).
    """

    def __init__(
        self,
        server: SimulatedWebDatabase,
        failure_rate: float = 0.1,
        seed: int = 0,
        charge_failed_rounds: bool = True,
    ) -> None:
        if not 0.0 <= failure_rate < 1.0:
            raise ValueError(f"failure_rate must be in [0, 1), got {failure_rate}")
        self._server = server
        self.failure_rate = failure_rate
        self.charge_failed_rounds = charge_failed_rounds
        self._rng = random.Random(seed)
        self.failures_injected = 0

    # The crawler-facing surface mirrors SimulatedWebDatabase.
    @property
    def table(self):
        return self._server.table

    @property
    def interface(self):
        return self._server.interface

    @property
    def page_size(self) -> int:
        return self._server.page_size

    @property
    def log(self):
        return self._server.log

    @property
    def rounds(self) -> int:
        return self._server.rounds

    def truth_size(self) -> int:
        return self._server.truth_size()

    def truth_count(self, query: AnyQuery) -> int:
        return self._server.truth_count(query)

    def truth_coverage(self, record_ids) -> float:
        return self._server.truth_coverage(record_ids)

    def submit(self, query: AnyQuery, page_number: int = 1) -> ResultPage:
        """One page request that may fail transiently.

        The interface check happens first (a rejected form submission is
        not a network failure); then the failure coin is tossed.
        """
        self.interface.validate(query)
        if self._rng.random() < self.failure_rate:
            self.failures_injected += 1
            if self.charge_failed_rounds:
                self.log.record()
            raise TransientServerError(
                f"request {query} page {page_number} timed out"
            )
        return self._server.submit(query, page_number)

    def submit_xml(self, query: AnyQuery, page_number: int = 1) -> str:
        from repro.server.service import render_page

        return render_page(self.submit(query, page_number))

    # ------------------------------------------------------------------
    # Durable-runtime state (see repro.runtime)
    # ------------------------------------------------------------------
    def runtime_state(self) -> dict:
        """Round counter plus the failure stream's RNG position."""
        from repro.runtime.serialize import encode_rng

        state = self._server.runtime_state()
        state["rng"] = encode_rng(self._rng)
        state["failures_injected"] = self.failures_injected
        return state

    def load_runtime_state(self, state: dict) -> None:
        from repro.runtime.serialize import restore_rng

        self._server.load_runtime_state(state)
        restore_rng(self._rng, state["rng"])
        self.failures_injected = state["failures_injected"]


def submit_with_retries(
    server,
    query: AnyQuery,
    page_number: int = 1,
    max_retries: int = 5,
    rng: Optional[random.Random] = None,
    backoff: Optional[ExponentialBackoff] = None,
    emit: Optional[Callable] = None,
) -> ResultPage:
    """Submit one page request, absorbing transient failures.

    Retries up to ``max_retries`` times; each attempt (failed or not)
    costs whatever the server charges.  Between attempts a
    :class:`ExponentialBackoff` (when supplied) computes a jittered
    simulated delay from ``rng``, charges its round cost to the server's
    communication log, and each retry is announced through ``emit`` (a
    callable taking a :class:`~repro.runtime.events.RetryAttempted`
    event).  Raises :class:`PermanentServerFailure` when the budget is
    exhausted.
    """
    attempts = max_retries + 1
    last_error: Optional[TransientServerError] = None
    for attempt in range(1, attempts + 1):
        try:
            return server.submit(query, page_number)
        except TransientServerError as error:
            last_error = error
            if attempt == attempts:
                break
            delay = 0.0
            delay_rounds = 0
            if backoff is not None:
                delay = backoff.delay(attempt, rng)
                delay_rounds = backoff.cost(delay)
                if delay_rounds:
                    server.log.charge(delay_rounds)
            if emit is not None:
                from repro.runtime.events import RetryAttempted

                emit(
                    RetryAttempted(
                        query=query,
                        page_number=page_number,
                        attempt=attempt,
                        backoff_delay=delay,
                        backoff_rounds=delay_rounds,
                    )
                )
    raise PermanentServerFailure(
        f"{attempts} attempts failed for {query} page {page_number}"
    ) from last_error
