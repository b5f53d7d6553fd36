"""Tests for post-crawl analysis reports."""

import pytest

from repro.analysis import (
    attribute_productivity,
    productivity_decay,
    render_attribute_productivity,
    render_value_coverage,
    value_coverage,
)
from repro.crawler import CrawlerEngine
from repro.policies import BreadthFirstSelector, GreedyLinkSelector
from repro.server import SimulatedWebDatabase


@pytest.fixture
def crawled(books):
    server = SimulatedWebDatabase(books, page_size=2)
    engine = CrawlerEngine(server, BreadthFirstSelector(), seed=0, keep_outcomes=True)
    result = engine.crawl([("publisher", "orbit")])
    return engine, result


class TestAttributeProductivity:
    def test_covers_queried_attributes(self, crawled):
        _engine, result = crawled
        rows = attribute_productivity(result)
        attributes = {row.attribute for row in rows}
        assert "publisher" in attributes
        assert "author" in attributes

    def test_totals_match_result(self, crawled):
        _engine, result = crawled
        rows = attribute_productivity(result)
        assert sum(row.queries for row in rows) == result.queries_issued
        assert sum(row.pages for row in rows) == result.communication_rounds
        assert sum(row.new_records for row in rows) == result.records_harvested

    def test_sorted_by_rate(self, crawled):
        _engine, result = crawled
        rates = [row.harvest_rate for row in attribute_productivity(result)]
        assert rates == sorted(rates, reverse=True)

    def test_requires_outcomes(self, books):
        server = SimulatedWebDatabase(books, page_size=2)
        result = CrawlerEngine(server, BreadthFirstSelector(), seed=0).crawl(
            [("publisher", "orbit")]
        )
        with pytest.raises(ValueError):
            attribute_productivity(result)

    def test_render(self, crawled):
        _engine, result = crawled
        text = render_attribute_productivity(result)
        assert "publisher" in text
        assert "new/page" in text


class TestProductivityDecay:
    def test_buckets_and_low_marginal_benefit(self, small_ebay):
        server = SimulatedWebDatabase(small_ebay, page_size=10)
        engine = CrawlerEngine(
            server, GreedyLinkSelector(), seed=1, keep_outcomes=True
        )
        result = engine.crawl(
            [
                next(
                    v
                    for v in small_ebay.distinct_values("seller")
                    if small_ebay.frequency(v) >= 3
                )
            ]
        )
        decay = productivity_decay(result, buckets=5)
        assert len(decay) == 5
        # The paper's phenomenon: the first phase far outproduces the last.
        assert decay[0] > decay[-1]

    def test_bucket_validation(self, crawled):
        _engine, result = crawled
        with pytest.raises(ValueError):
            productivity_decay(result, buckets=0)


class TestValueCoverage:
    def test_full_component_crawl_covers_component_values(self, crawled, books):
        engine, _result = crawled
        rows = {row.attribute: row for row in value_coverage(engine.local_db, books)}
        # All 4 publishers minus the island's 'lonepress'.
        assert rows["publisher"].values_seen == 3
        assert rows["publisher"].values_total == 4
        assert rows["publisher"].fraction == pytest.approx(0.75)

    def test_render(self, crawled, books):
        engine, _result = crawled
        text = render_value_coverage(engine.local_db, books)
        assert "publisher" in text and "coverage" in text


class TestRuntimeMetrics:
    """The roll-up drawn from the telemetry registry."""

    def test_rollup_matches_the_crawl(self, small_ebay):
        import random

        from repro.analysis.reports import render_runtime_metrics
        from repro.experiments.harness import sample_seed_values
        from repro.metrics import TelemetrySink
        from repro.runtime import EventBus, MetricsAggregator

        bus = EventBus()
        telemetry = bus.attach(TelemetrySink())
        aggregator = bus.attach(MetricsAggregator())
        engine = CrawlerEngine(
            SimulatedWebDatabase(small_ebay, page_size=10),
            GreedyLinkSelector(), seed=4, bus=bus,
        )
        seeds = sample_seed_values(small_ebay, 1, random.Random(4), min_frequency=2)
        result = engine.crawl(seeds, max_queries=40)
        text = render_runtime_metrics(telemetry.registry)
        lines = text.splitlines()
        assert lines[0] == "Event-bus crawl metrics"
        row = [cell.strip() for cell in lines[3].split("|")]
        assert row[:4] == [
            "greedy-link",
            str(result.queries_issued),
            str(result.communication_rounds),
            str(result.records_harvested),
        ]
        histogram = aggregator.histograms["greedy-link"]
        buckets = " ".join(
            f"{label}:{count}"
            for label, count in histogram.labelled_buckets()
            if count
        )
        assert lines[4] == (
            f"pages/query [greedy-link]: mean {histogram.mean:.2f}  {buckets}"
        )

    def test_empty_registry_renders_headers_only(self):
        from repro.analysis.reports import render_runtime_metrics
        from repro.metrics import TelemetrySink

        text = render_runtime_metrics(TelemetrySink().registry)
        assert text.splitlines()[0] == "Event-bus crawl metrics"
        assert "pages/query" not in text
