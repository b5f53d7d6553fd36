"""Tests for multi-attribute (clique) query selection."""

import pytest

from repro.core import AttributeValue, ConjunctiveQuery, CrawlError, Record
from repro.crawler import CrawlerEngine
from repro.datasets import car_interface, generate_cars
from repro.policies import (
    GreedyCliqueSelector,
    RandomCliqueSelector,
    record_combinations,
)
from repro.server import SimulatedWebDatabase


def AV(attribute, value):
    return AttributeValue(attribute, value)


class TestRecordCombinations:
    record = Record(
        1, {"make": ("toyota",), "model": ("corolla",), "year": ("2001",)}
    )

    def test_pairs(self):
        combos = record_combinations(self.record, ["make", "model", "year"], 2)
        assert len(combos) == 3
        assert all(len(c) == 2 for c in combos)

    def test_respects_queriable_filter(self):
        combos = record_combinations(self.record, ["make", "model"], 2)
        assert combos == [(AV("make", "toyota"), AV("model", "corolla"))]

    def test_arity_three(self):
        combos = record_combinations(self.record, ["make", "model", "year"], 3)
        assert len(combos) == 1

    def test_multivalued_attributes_expand(self):
        record = Record(2, {"a": ("x", "y"), "b": ("p",)})
        combos = record_combinations(record, ["a", "b"], 2)
        # (x,p) and (y,p); never (x,y) — same attribute.
        assert len(combos) == 2

    def test_arity_too_large_gives_nothing(self):
        assert record_combinations(self.record, ["make"], 2) == []


class TestValidation:
    def test_bad_arity(self):
        with pytest.raises(CrawlError):
            GreedyCliqueSelector(arity=0)


@pytest.fixture(scope="module")
def cars():
    return generate_cars(800, seed=2)


def crawl_cars(cars, selector, **kwargs):
    server = SimulatedWebDatabase(cars, page_size=10, interface=car_interface())
    engine = CrawlerEngine(server, selector, seed=3)
    first = cars.get(cars.record_ids()[0])
    selector.seed_combinations(
        record_combinations(first, cars.schema.queriable, 2)
    )
    return engine.crawl([], allow_empty_seeds=True, **kwargs)


class TestCrawling:
    def test_greedy_crawl_reaches_high_coverage(self, cars):
        result = crawl_cars(cars, GreedyCliqueSelector(), max_rounds=10_000)
        assert result.coverage > 0.85
        assert result.policy == "greedy-clique"

    def test_all_issued_queries_are_conjunctions(self, cars):
        server = SimulatedWebDatabase(
            cars, page_size=10, interface=car_interface()
        )
        selector = GreedyCliqueSelector()
        engine = CrawlerEngine(server, selector, seed=3)
        first = cars.get(cars.record_ids()[0])
        selector.seed_combinations(
            record_combinations(first, cars.schema.queriable, 2)
        )
        engine.crawl([], allow_empty_seeds=True, max_queries=30)
        issued = engine.context.lqueried
        assert issued
        assert all(isinstance(query, ConjunctiveQuery) for query in issued)

    def test_no_conjunction_issued_twice(self, cars):
        server = SimulatedWebDatabase(
            cars, page_size=10, interface=car_interface()
        )
        selector = GreedyCliqueSelector()
        engine = CrawlerEngine(server, selector, seed=3)
        first = cars.get(cars.record_ids()[0])
        selector.seed_combinations(
            record_combinations(first, cars.schema.queriable, 2)
        )
        engine.crawl([], allow_empty_seeds=True, max_queries=60)
        issued = engine.context.lqueried
        assert len(issued) == len(set(issued))

    def test_greedy_cheaper_than_random(self, cars):
        greedy = crawl_cars(cars, GreedyCliqueSelector(), target_coverage=0.8)
        random_ = crawl_cars(cars, RandomCliqueSelector(), target_coverage=0.8)
        assert greedy.communication_rounds <= random_.communication_rounds

    def test_empty_seeds_without_flag_rejected(self, cars):
        server = SimulatedWebDatabase(cars, interface=car_interface())
        engine = CrawlerEngine(server, GreedyCliqueSelector(), seed=0)
        with pytest.raises(CrawlError):
            engine.crawl([])

    def test_explicit_arity_three(self, cars):
        server = SimulatedWebDatabase(
            cars, page_size=10, interface=car_interface(min_predicates=2)
        )
        selector = GreedyCliqueSelector(arity=3)
        engine = CrawlerEngine(server, selector, seed=3)
        first = cars.get(cars.record_ids()[0])
        selector.seed_combinations(
            record_combinations(first, cars.schema.queriable, 3)
        )
        result = engine.crawl([], allow_empty_seeds=True, max_queries=20)
        assert result.queries_issued > 0
