"""Unit tests for the GL→MMMI hybrid and saturation detection."""

import pytest

from repro.core import CrawlError, Query
from repro.crawler import CrawlerEngine, QueryOutcome
from repro.policies import GreedyMmmiSelector, SaturationDetector
from repro.server import SimulatedWebDatabase


def outcome(new, pages=1):
    result = QueryOutcome(query=Query.keyword("x"))
    result.pages_fetched = pages
    result.new_records = [object()] * new  # only the count matters
    return result


class TestSaturationDetector:
    def test_needs_full_window(self):
        detector = SaturationDetector(window=3, min_harvest_rate=1.0)
        detector.observe(outcome(0))
        detector.observe(outcome(0))
        assert not detector.saturated
        detector.observe(outcome(0))
        assert detector.saturated

    def test_high_rates_not_saturated(self):
        detector = SaturationDetector(window=2, min_harvest_rate=1.0)
        detector.observe(outcome(5))
        detector.observe(outcome(5))
        assert not detector.saturated

    def test_sliding_window_forgets(self):
        detector = SaturationDetector(window=2, min_harvest_rate=1.0)
        detector.observe(outcome(0))
        detector.observe(outcome(0))
        assert detector.saturated
        detector.observe(outcome(10))
        detector.observe(outcome(10))
        assert not detector.saturated

    def test_bad_window(self):
        with pytest.raises(CrawlError):
            SaturationDetector(window=0)


class TestHybridConstruction:
    def test_needs_some_trigger(self):
        with pytest.raises(CrawlError):
            GreedyMmmiSelector(switch_coverage=None, detector=None)

    def test_default_detectors_not_shared(self):
        a = GreedyMmmiSelector()
        b = GreedyMmmiSelector()
        assert a.detector is not b.detector

    def test_name(self):
        assert GreedyMmmiSelector().name == "greedy-link+mmmi"


class TestSwitching:
    def test_oracle_switch_fires(self, books):
        server = SimulatedWebDatabase(books, page_size=2)
        selector = GreedyMmmiSelector(switch_coverage=0.5, detector=None)
        engine = CrawlerEngine(server, selector, seed=0)
        engine.crawl([("publisher", "orbit")])
        assert selector.switched

    def test_no_switch_below_threshold(self, books):
        server = SimulatedWebDatabase(books, page_size=2)
        selector = GreedyMmmiSelector(switch_coverage=0.99, detector=None)
        engine = CrawlerEngine(server, selector, seed=0)
        engine.crawl([("publisher", "orbit")], max_queries=2)
        assert not selector.switched

    def test_detector_switch_without_oracle(self, books):
        # Harvest-rate trigger alone: window 1 with an unreachable rate
        # threshold saturates after the first query.
        selector = GreedyMmmiSelector(
            switch_coverage=None,
            detector=SaturationDetector(window=1, min_harvest_rate=10**6),
        )
        server = SimulatedWebDatabase(books, page_size=2)
        engine = CrawlerEngine(server, selector, seed=0)
        engine.crawl([("publisher", "orbit")], max_queries=3)
        assert selector.switched

    def test_full_crawl_same_reachable_set_as_gl(self, books):
        from repro.policies import GreedyLinkSelector

        def harvest(selector):
            server = SimulatedWebDatabase(books, page_size=2)
            engine = CrawlerEngine(server, selector, seed=0)
            result = engine.crawl([("publisher", "orbit")])
            return result.records_harvested

        assert harvest(GreedyMmmiSelector(switch_coverage=0.5, detector=None)) == (
            harvest(GreedyLinkSelector())
        )


class TestFrontierStats:
    """The Figure 4 policy reports its inner frontiers' counters."""

    def crawl(self, table):
        import random

        from repro.experiments.harness import sample_seed_values

        selector = GreedyMmmiSelector(switch_coverage=0.6, detector=None)
        engine = CrawlerEngine(
            SimulatedWebDatabase(table, page_size=10), selector, seed=3
        )
        seeds = sample_seed_values(table, 1, random.Random(3), min_frequency=2)
        engine.crawl(seeds, max_queries=80)
        assert selector.switched
        return selector

    def test_sums_the_inner_selectors(self, small_ebay):
        selector = self.crawl(small_ebay)
        greedy = selector._greedy.frontier_stats()
        assert selector._mmmi.frontier_stats() is None
        assert greedy["rescored_total"] > 0
        assert selector.frontier_stats() == greedy

    def test_telemetry_records_frontier_counters(self, small_ebay):
        from repro.metrics import TelemetrySink

        selector = self.crawl(small_ebay)
        telemetry = TelemetrySink()
        telemetry.sample_selector(selector)
        greedy = selector._greedy.frontier_stats()
        key = {"policy": "greedy-link+mmmi"}
        assert telemetry.frontier_rescored.value(**key) == greedy["rescored_total"]
        assert telemetry.frontier_dirty.value(**key) == greedy["dirty_total"]
        assert telemetry.frontier_pending.value() == greedy["pending"]
