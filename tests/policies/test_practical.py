"""Tests for the practical crawler bundle (the paper's conclusion)."""

from repro.policies import (
    DomainKnowledgeSelector,
    GreedyMmmiSelector,
    build_practical_crawler,
    build_practical_selector,
)
from repro.server import SimulatedWebDatabase


class TestSelectorChoice:
    def test_with_domain_table(self, dvd_domain_table):
        selector = build_practical_selector(dvd_domain_table)
        assert isinstance(selector, DomainKnowledgeSelector)
        assert selector.smoothing

    def test_without_domain_table(self):
        selector = build_practical_selector()
        assert isinstance(selector, GreedyMmmiSelector)
        # Must be oracle-free: switches on the harvest-rate detector.
        assert selector.detector is not None


class TestCrawler:
    def test_crawls_with_abortion_installed(self, books):
        server = SimulatedWebDatabase(books, page_size=2)
        engine = build_practical_crawler(server, seed=0)
        result = engine.crawl([("publisher", "orbit")])
        assert result.records_harvested == 8

    def test_domain_crawl_without_seeds(self, dvd_store, dvd_domain_table):
        server = SimulatedWebDatabase(dvd_store, page_size=10)
        engine = build_practical_crawler(server, dvd_domain_table, seed=1)
        result = engine.crawl(
            [], allow_empty_seeds=True, max_rounds=len(dvd_store) // 3
        )
        assert result.records_harvested > 0
        assert result.policy == "domain-knowledge"

    def test_abortion_saves_rounds_on_saturated_source(self, small_ebay):
        """The practical bundle never pays more than the plain crawler."""
        from repro.crawler import CrawlerEngine
        from repro.policies import GreedyLinkSelector

        seed_value = next(
            v for v in small_ebay.distinct_values("seller")
            if small_ebay.frequency(v) >= 3
        )
        plain_server = SimulatedWebDatabase(small_ebay, page_size=10)
        plain = CrawlerEngine(plain_server, GreedyLinkSelector(), seed=2).crawl(
            [seed_value], target_coverage=0.95
        )
        practical_server = SimulatedWebDatabase(small_ebay, page_size=10)
        practical = build_practical_crawler(practical_server, seed=2).crawl(
            [seed_value], target_coverage=0.95
        )
        assert practical.coverage >= 0.95
        assert practical.communication_rounds <= plain.communication_rounds * 1.05

    def test_xml_mode(self, books):
        server = SimulatedWebDatabase(books, page_size=2)
        engine = build_practical_crawler(server, seed=0, use_xml=True)
        result = engine.crawl([("publisher", "orbit")])
        assert result.records_harvested == 8
