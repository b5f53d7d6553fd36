"""Exponential backoff and the retrying transport.

The satellite under test: ``submit_with_retries`` actually *uses* its
RNG — jittered delays are drawn from it, charged to the communication
log in rounds, and announced as ``RetryAttempted`` events.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.query import Query
from repro.server.flaky import (
    ExponentialBackoff,
    FlakyServer,
    PermanentServerFailure,
    TransientServerError,
    submit_with_retries,
)
from repro.server.network import CommunicationLog
from repro.server.webdb import SimulatedWebDatabase

Q = Query("orbit", attribute="publisher")


class TestExponentialBackoff:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExponentialBackoff(base_delay=0)
        with pytest.raises(ValueError):
            ExponentialBackoff(multiplier=0.5)
        with pytest.raises(ValueError):
            ExponentialBackoff(base_delay=10, max_delay=5)
        with pytest.raises(ValueError):
            ExponentialBackoff(jitter=1.0)

    def test_delays_grow_then_cap(self):
        backoff = ExponentialBackoff(
            base_delay=1.0, multiplier=2.0, max_delay=8.0, jitter=0.0
        )
        assert [backoff.delay(n) for n in range(1, 6)] == [1, 2, 4, 8, 8]

    def test_jitter_stays_in_band_and_consumes_rng(self):
        backoff = ExponentialBackoff(base_delay=10.0, jitter=0.5)
        rng = random.Random(0)
        before = rng.getstate()
        delays = [backoff.delay(1, rng) for _ in range(50)]
        assert rng.getstate() != before  # the rng was actually used
        assert all(5.0 <= delay <= 15.0 for delay in delays)
        assert len(set(delays)) > 1  # jitter, not a constant

    def test_no_rng_means_no_jitter(self):
        backoff = ExponentialBackoff(base_delay=3.0, jitter=0.5)
        assert backoff.delay(1) == 3.0

    def test_cost_defaults_to_free(self):
        assert ExponentialBackoff().cost(123.0) == 0

    def test_charging_rounds_up(self):
        backoff = ExponentialBackoff.charging(seconds_per_round=10.0)
        assert backoff.cost(0.5) == 1
        assert backoff.cost(25.0) == 3


class AlwaysFailing:
    """A server whose every submit times out (still charges the round)."""

    def __init__(self) -> None:
        self.log = CommunicationLog()
        self.attempts = 0

    def submit(self, query, page_number=1):
        self.attempts += 1
        self.log.record()
        raise TransientServerError("timeout")


class TestSubmitWithRetries:
    def books_server(self, books, failure_rate=0.5, seed=0):
        return FlakyServer(
            SimulatedWebDatabase(books, page_size=2),
            failure_rate=failure_rate,
            seed=seed,
        )

    def test_absorbs_transient_failures(self, books):
        server = self.books_server(books, failure_rate=0.5, seed=3)
        page = submit_with_retries(server, Q, max_retries=20)
        assert page.records

    def test_permanent_failure_after_budget(self):
        server = AlwaysFailing()
        with pytest.raises(PermanentServerFailure):
            submit_with_retries(server, Q, max_retries=4)
        assert server.attempts == 5  # initial try + 4 retries

    def test_backoff_charges_rounds_to_the_log(self):
        server = AlwaysFailing()
        backoff = ExponentialBackoff(
            base_delay=10.0, multiplier=2.0, max_delay=100.0, jitter=0.0,
            backoff_cost=lambda delay: math.ceil(delay / 10.0),
        )
        with pytest.raises(PermanentServerFailure):
            submit_with_retries(server, Q, max_retries=3, backoff=backoff)
        # 4 failed requests cost 4 rounds; waits of 10, 20, 40 seconds
        # cost 1 + 2 + 4 rounds (no wait after the final attempt).
        assert server.log.rounds == 4 + 7

    def test_rng_jitters_the_charged_delays(self):
        def run(seed):
            server = AlwaysFailing()
            backoff = ExponentialBackoff.charging(
                seconds_per_round=1.0, base_delay=10.0, jitter=0.5
            )
            events = []
            with pytest.raises(PermanentServerFailure):
                submit_with_retries(
                    server, Q, max_retries=3,
                    rng=random.Random(seed), backoff=backoff,
                    emit=events.append,
                )
            return server.log.rounds, [e.backoff_delay for e in events]

        rounds_1, delays_1 = run(1)
        rounds_2, delays_2 = run(2)
        assert delays_1 != delays_2  # different jitter draws
        assert rounds_1 > 4 and rounds_2 > 4  # waits charged beyond requests

    def test_retry_events_are_emitted(self):
        server = AlwaysFailing()
        backoff = ExponentialBackoff(jitter=0.0)
        events = []
        with pytest.raises(PermanentServerFailure):
            submit_with_retries(
                server, Q, max_retries=3, backoff=backoff, emit=events.append
            )
        assert [event.attempt for event in events] == [1, 2, 3]
        assert all(event.kind == "retry-attempted" for event in events)
        assert [event.backoff_delay for event in events] == [1.0, 2.0, 4.0]


class TestFlakyRuntimeState:
    def test_failure_stream_round_trips(self, books):
        server = FlakyServer(
            SimulatedWebDatabase(books, page_size=2), failure_rate=0.4, seed=5
        )
        # Burn some of the failure stream.
        for _ in range(6):
            try:
                server.submit(Q)
            except TransientServerError:
                pass
        state = server.runtime_state()
        twin = FlakyServer(
            SimulatedWebDatabase(books, page_size=2), failure_rate=0.4, seed=0
        )
        twin.load_runtime_state(state)
        assert twin.rounds == server.rounds
        assert twin.failures_injected == server.failures_injected

        def outcomes(target):
            results = []
            for _ in range(10):
                try:
                    target.submit(Q)
                    results.append("ok")
                except TransientServerError:
                    results.append("fail")
            return results

        assert outcomes(twin) == outcomes(server)
