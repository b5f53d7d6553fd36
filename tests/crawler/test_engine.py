"""Unit and integration tests for the crawler engine loop."""

import pytest

from repro.core import AttributeValue, CrawlError
from repro.crawler import CrawlerEngine, normalize_seed, run_crawl
from repro.policies import BreadthFirstSelector
from repro.runtime.events import EventBus, PageFetched, RingBufferSink
from repro.server import QueryInterface, SimulatedWebDatabase


def AV(attribute, value):
    return AttributeValue(attribute, value)


class TestNormalizeSeed:
    def test_attribute_value_passthrough(self):
        pair = AV("a", "x")
        assert normalize_seed(pair) is pair

    def test_tuple(self):
        assert normalize_seed(("Publisher", "Orbit")) == AV("publisher", "orbit")

    def test_bare_string_becomes_star(self):
        seed = normalize_seed("orbit")
        assert seed.attribute == "*"
        assert seed.value == "orbit"


class TestCrawlLoop:
    def test_full_crawl_reaches_connected_component(self, books):
        server = SimulatedWebDatabase(books, page_size=2)
        engine = CrawlerEngine(server, BreadthFirstSelector(), seed=0)
        result = engine.crawl([("publisher", "orbit")])
        # Records 0-7 are mutually reachable; record 8 is an island.
        assert result.records_harvested == 8
        assert result.coverage == pytest.approx(8 / 9)
        assert result.stopped_by == "frontier-exhausted"

    def test_island_seed_stays_on_island(self, books):
        server = SimulatedWebDatabase(books, page_size=2)
        engine = CrawlerEngine(server, BreadthFirstSelector(), seed=0)
        result = engine.crawl([("publisher", "lonepress")])
        assert result.records_harvested == 1

    def test_no_query_issued_twice(self, books):
        server = SimulatedWebDatabase(books, page_size=2)
        bus = EventBus()
        pages = bus.attach(RingBufferSink(capacity=10_000))
        engine = CrawlerEngine(server, BreadthFirstSelector(), seed=0, bus=bus)
        engine.crawl([("publisher", "orbit")])
        issued = [
            (event.query, event.page_number)
            for event in pages.of_kind(PageFetched.kind)
        ]
        assert len(issued) == server.rounds
        assert len(issued) == len(set(issued))

    def test_history_tracks_progress(self, books):
        server = SimulatedWebDatabase(books, page_size=2)
        engine = CrawlerEngine(server, BreadthFirstSelector(), seed=0)
        result = engine.crawl([("publisher", "orbit")])
        assert result.history.final_records == result.records_harvested
        assert result.history.final_rounds == result.communication_rounds

    def test_max_rounds_stops(self, books):
        server = SimulatedWebDatabase(books, page_size=2)
        engine = CrawlerEngine(server, BreadthFirstSelector(), seed=0)
        result = engine.crawl([("publisher", "orbit")], max_rounds=3)
        assert result.stopped_by == "max-rounds"
        # One query may overshoot the budget by its own page count.
        assert result.communication_rounds <= 5

    def test_max_queries_stops(self, books):
        server = SimulatedWebDatabase(books, page_size=2)
        engine = CrawlerEngine(server, BreadthFirstSelector(), seed=0)
        result = engine.crawl([("publisher", "orbit")], max_queries=2)
        assert result.stopped_by == "max-queries"
        assert result.queries_issued == 2

    def test_target_coverage_stops(self, books):
        server = SimulatedWebDatabase(books, page_size=2)
        engine = CrawlerEngine(server, BreadthFirstSelector(), seed=0)
        result = engine.crawl([("publisher", "orbit")], target_coverage=0.5)
        assert result.stopped_by == "target-coverage"
        assert result.coverage >= 0.5

    def test_engine_single_use(self, books):
        server = SimulatedWebDatabase(books, page_size=2)
        engine = CrawlerEngine(server, BreadthFirstSelector(), seed=0)
        engine.crawl([("publisher", "orbit")])
        with pytest.raises(CrawlError):
            engine.crawl([("publisher", "mitp")])

    def test_empty_seeds_rejected(self, books):
        server = SimulatedWebDatabase(books, page_size=2)
        engine = CrawlerEngine(server, BreadthFirstSelector(), seed=0)
        with pytest.raises(CrawlError):
            engine.crawl([])

    def test_keep_outcomes(self, books):
        server = SimulatedWebDatabase(books, page_size=2)
        engine = CrawlerEngine(
            server, BreadthFirstSelector(), seed=0, keep_outcomes=True
        )
        result = engine.crawl([("publisher", "orbit")])
        assert len(result.outcomes) == result.queries_issued
        assert sum(len(o.new_records) for o in result.outcomes) == 8

    def test_run_crawl_convenience(self, books):
        server = SimulatedWebDatabase(books, page_size=2)
        result = run_crawl(
            server, BreadthFirstSelector(), [("publisher", "orbit")], seed=0
        )
        assert result.records_harvested == 8


class TestKeywordInterface:
    def test_values_issue_as_keyword_queries(self, books):
        server = SimulatedWebDatabase(
            books,
            page_size=3,
            interface=QueryInterface.keyword_only("books"),
        )
        engine = CrawlerEngine(server, BreadthFirstSelector(), seed=0)
        result = engine.crawl(["orbit"])
        assert result.records_harvested >= 4
        assert all(query.is_keyword for query in engine.context.lqueried)

    def test_same_string_across_attributes_queried_once(self, books):
        # Under a keyword interface, AttributeValues sharing a string
        # collapse onto one wire query.
        server = SimulatedWebDatabase(
            books,
            page_size=3,
            interface=QueryInterface.keyword_only("books"),
        )
        engine = CrawlerEngine(server, BreadthFirstSelector(), seed=0)
        engine.crawl(["orbit"])
        issued = engine.context.lqueried
        values = [query.value for query in issued]
        assert len(set(values)) == len(set(values))  # sanity
        # distinct wire queries == distinct strings issued
        assert len(set(issued)) == len(set(values))


class TestXmlEngine:
    def test_xml_crawl_matches_object_crawl(self, books):
        def run(use_xml):
            server = SimulatedWebDatabase(books, page_size=2)
            engine = CrawlerEngine(
                server, BreadthFirstSelector(), seed=0, use_xml=use_xml
            )
            return engine.crawl([("publisher", "orbit")])

        plain, xml = run(False), run(True)
        assert plain.records_harvested == xml.records_harvested
        assert plain.communication_rounds == xml.communication_rounds
        assert plain.queries_issued == xml.queries_issued
