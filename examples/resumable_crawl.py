#!/usr/bin/env python
"""Durable crawling: checkpoint, crash, resume — losslessly.

Crawls a flaky eBay-style source (10% of page requests time out;
retries back off with charged, jittered delays) under the durable
runtime, kills the crawl mid-step with an injected crash, then resumes
from the checkpoint directory and verifies the finished crawl is
bit-identical to an uninterrupted reference run.

Run:  python examples/resumable_crawl.py
"""

import tempfile
from pathlib import Path

from repro.analysis.reports import render_runtime_metrics
from repro.crawler import CrawlerEngine
from repro.datasets import generate_ebay
from repro.metrics import TelemetrySink
from repro.policies import GreedyLinkSelector
from repro.runtime import (
    CrashAfterSteps,
    EventBus,
    RuntimeCrawler,
    SimulatedCrash,
)
from repro.server import SimulatedWebDatabase
from repro.server.flaky import ExponentialBackoff, FlakyServer

SEED = 5
MAX_QUERIES = 120
CRASH_AFTER_STEPS = 40


def make_parts(table, bus=None):
    """A fresh flaky server + selector + engine of identical config."""
    server = FlakyServer(
        SimulatedWebDatabase(table, page_size=10), failure_rate=0.1, seed=7
    )
    backoff = ExponentialBackoff.charging(seconds_per_round=10.0)
    engine = CrawlerEngine(
        server, GreedyLinkSelector(), seed=SEED,
        max_retries=3, backoff=backoff, bus=bus,
    )
    return server, engine


def seed_value(table):
    return next(
        value for value in table.distinct_values("seller")
        if table.frequency(value) >= 3
    )


def main() -> None:
    table = generate_ebay(n_records=2000, seed=1)
    seeds = [seed_value(table)]
    print(f"hidden database: {len(table):,} records (flaky: 10% timeouts)")

    # Reference: the same crawl, uninterrupted.
    _, reference_engine = make_parts(table)
    reference = reference_engine.crawl(seeds, max_queries=MAX_QUERIES)
    print(f"reference run:   {reference.records_harvested:,} records in "
          f"{reference.communication_rounds:,} rounds")

    checkpoint_dir = Path(tempfile.mkdtemp(prefix="repro-ck-")) / "crawl"

    # Durable crawl with a crash injected mid-step: the sink raises from
    # inside step 40, after the server mutated but before the journal
    # recorded the step — the worst possible instant.
    bus = EventBus()
    bus.attach(CrashAfterSteps(CRASH_AFTER_STEPS))
    _, engine = make_parts(table, bus=bus)
    runtime = RuntimeCrawler(engine, checkpoint_dir=checkpoint_dir,
                             checkpoint_every=25)
    try:
        runtime.crawl(seeds, max_queries=MAX_QUERIES)
    except SimulatedCrash as crash:
        print(f"crash injected:  {crash}")
    finally:
        runtime.close()

    # Recovery: fresh server + selector, state rebuilt from disk.  The
    # journal is replayed through the selector itself, so it re-proposes
    # exactly the queries the dead crawl issued, and the telemetry sink
    # counts each replayed step as if it had watched it live.
    telemetry = TelemetrySink()
    fresh_server, _ = make_parts(table)
    resumed = RuntimeCrawler.resume(
        checkpoint_dir,
        fresh_server,
        GreedyLinkSelector(),
        backoff=ExponentialBackoff.charging(seconds_per_round=10.0),
        telemetry=telemetry,
    )
    print(f"resumed at step: {resumed.engine.steps} "
          f"(lost only the in-flight step)")
    result = resumed.run()
    resumed.close()

    print(f"resumed run:     {result.records_harvested:,} records in "
          f"{result.communication_rounds:,} rounds")
    match = "bit-identical" if result == reference else "MISMATCH"
    print(f"vs reference:    {match}")
    print()
    # Retries are not journaled: the roll-up counts only the live part's.
    print(render_runtime_metrics(telemetry.registry))


if __name__ == "__main__":
    main()
