"""A resumed crawl's telemetry counts what the uninterrupted crawl's does.

The registry travels in every full snapshot, journal replay counts each
replayed step through ``TelemetrySink.count_replayed``, and the
selector's frontier counters travel in its checkpoint state.  So after
a suspension or a crash, every counter a journal entry determines —
and the frontier counters — must equal the uninterrupted crawl's.
Retries and rejections are not journaled and are left out here.
"""

from __future__ import annotations

import pytest

from repro.metrics import TelemetrySink
from repro.policies import GreedyLinkSelector, GreedyMmmiSelector
from repro.runtime.crawler import RuntimeCrawler
from repro.runtime.events import CrashAfterSteps, EventBus, SimulatedCrash

from tests.runtime.conftest import (
    CHECKPOINT_EVERY,
    MAX_QUERIES,
    make_backoff,
    make_engine,
    make_flaky_server,
    seed_values,
)

#: Counters a journal entry determines.  The scaffold's interface
#: rejects no query, so every issued query is a journaled step.
JOURNALED = (
    "crawl_queries_issued_total",
    "crawl_queries_completed_total",
    "crawl_queries_aborted_total",
    "crawl_queries_failed_total",
    "crawl_pages_fetched_total",
    "crawl_records_new_total",
    "crawl_records_duplicate_total",
    "frontier_rescored_total",
    "frontier_dirty_total",
)

SELECTORS = {
    "greedy-link": GreedyLinkSelector,
    "greedy-link+mmmi": lambda: GreedyMmmiSelector(
        switch_coverage=0.3, detector=None
    ),
}


def counted(telemetry, selector) -> dict:
    """The journal-determined series after the crawl's final sampling."""
    telemetry.sample_selector(selector)
    registry = telemetry.registry
    values = {name: registry.get(name).series() for name in JOURNALED}
    histogram = registry.get("crawl_pages_per_query")
    values["crawl_pages_per_query"] = [
        (key, series.counts, series.total, series.sum)
        for key, series in histogram.series()
    ]
    for gauge in ("crawl_steps", "crawl_records", "crawl_rounds"):
        values[gauge] = registry.get(gauge).value()
    return values


def durable_crawl(tmp_path, policy, table, bus=None):
    telemetry = TelemetrySink(track_wall_time=False)
    selector = SELECTORS[policy]()
    runtime = RuntimeCrawler(
        make_engine(table, selector, bus=bus),
        checkpoint_dir=tmp_path,
        checkpoint_every=CHECKPOINT_EVERY,
        telemetry=telemetry,
    )
    return runtime, telemetry, selector


def resume(tmp_path, policy, table):
    telemetry = TelemetrySink(track_wall_time=False)
    selector = SELECTORS[policy]()
    runtime = RuntimeCrawler.resume(
        tmp_path,
        make_flaky_server(table),
        selector,
        backoff=make_backoff(),
        telemetry=telemetry,
    )
    result = runtime.run()
    runtime.close()
    return result, counted(telemetry, selector)


@pytest.fixture(scope="module", params=sorted(SELECTORS))
def straight(request, tmp_path_factory, flaky_table):
    """The uninterrupted durable crawl and its counters, per policy."""
    policy = request.param
    runtime, telemetry, selector = durable_crawl(
        tmp_path_factory.mktemp("straight"), policy, flaky_table
    )
    result = runtime.crawl(seed_values(flaky_table), max_queries=MAX_QUERIES)
    runtime.close()
    return policy, result, counted(telemetry, selector)


def test_suspension_then_resume_counts_like_the_uninterrupted_crawl(
    tmp_path, flaky_table, straight
):
    policy, result, expected = straight
    runtime, _, _ = durable_crawl(tmp_path, policy, flaky_table)
    runtime.crawl(
        seed_values(flaky_table), max_queries=MAX_QUERIES, stop_after_steps=17
    )
    runtime.close()
    resumed, counters = resume(tmp_path, policy, flaky_table)
    assert resumed == result
    assert counters == expected
    # Resuming the same checkpoint again replays every journaled step.
    again, counters = resume(tmp_path, policy, flaky_table)
    assert again == result
    assert counters == expected


def test_crash_then_resume_counts_like_the_uninterrupted_crawl(
    tmp_path, flaky_table, straight
):
    policy, result, expected = straight
    bus = EventBus()
    bus.attach(CrashAfterSteps(27))
    runtime, _, _ = durable_crawl(tmp_path, policy, flaky_table, bus=bus)
    with pytest.raises(SimulatedCrash):
        runtime.crawl(seed_values(flaky_table), max_queries=MAX_QUERIES)
    runtime.close()
    resumed, counters = resume(tmp_path, policy, flaky_table)
    assert resumed == result
    assert counters == expected
