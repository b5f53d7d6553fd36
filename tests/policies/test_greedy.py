"""Unit tests for the greedy link-based (GL) selector."""

import random

from repro.core import AttributeValue
from repro.crawler import CrawlerContext, CrawlerEngine, LocalDatabase, QueryOutcome
from repro.core import Query
from repro.policies import GreedyFrequencySelector, GreedyLinkSelector
from repro.server import QueryInterface, SimulatedWebDatabase
from tests.conftest import make_record


def AV(attribute, value):
    return AttributeValue(attribute, value)


def bind(selector):
    context = CrawlerContext(
        local_db=LocalDatabase(),
        interface=QueryInterface(frozenset({"a", "b"})),
        page_size=10,
        rng=random.Random(0),
    )
    selector.bind(context)
    return selector, context


def outcome_with(records):
    outcome = QueryOutcome(query=Query.keyword("x"))
    outcome.new_records = list(records)
    outcome.candidate_values = [
        pair for record in records for pair in record.attribute_values()
    ]
    return outcome


class TestGreedyLink:
    def test_picks_highest_local_degree(self):
        selector, context = bind(GreedyLinkSelector())
        # "hub" co-occurs with three values; "leaf" with one.
        records = [
            make_record(1, a="hub", b="p"),
            make_record(2, a="hub", b="q"),
            make_record(3, a="hub", b="r"),
            make_record(4, a="leaf", b="s"),
        ]
        for record in records:
            context.local_db.add(record)
        for record in records:
            for pair in record.attribute_values():
                selector.add_candidate(pair)
        assert selector.next_query() == AV("a", "hub")

    def test_observe_outcome_refreshes_ranking(self):
        selector, context = bind(GreedyLinkSelector())
        first = make_record(1, a="x", b="p")
        context.local_db.add(first)
        for pair in first.attribute_values():
            selector.add_candidate(pair)
        # New results make "p" a hub; without refresh it would stay ranked
        # at its push-time degree and lose to x.
        growth = [make_record(2, a="y", b="p"), make_record(3, a="z", b="p")]
        for record in growth:
            context.local_db.add(record)
            for pair in record.attribute_values():
                selector.add_candidate(pair)
        selector.observe_outcome(outcome_with(growth))
        assert selector.next_query() == AV("b", "p")

    def test_name(self):
        assert GreedyLinkSelector().name == "greedy-link"

    def test_exhaustion(self):
        selector, _context = bind(GreedyLinkSelector())
        assert selector.next_query() is None


class TestGreedyFrequency:
    def test_picks_highest_frequency(self):
        selector, context = bind(GreedyFrequencySelector())
        records = [
            make_record(1, a="common", b="u1"),
            make_record(2, a="common", b="u2"),
            make_record(3, a="rare", b="u3"),
        ]
        for record in records:
            context.local_db.add(record)
            for pair in record.attribute_values():
                selector.add_candidate(pair)
        selector.observe_outcome(outcome_with(records))
        assert selector.next_query() == AV("a", "common")


class TestEndToEnd:
    def test_gl_beats_random_on_hub_structure(self, small_ebay):
        """The Figure 3 ordering on a small instance: GL <= random cost."""
        from repro.policies import RandomSelector

        seed_value = next(
            value
            for value in small_ebay.distinct_values("seller")
            if small_ebay.frequency(value) >= 3
        )
        costs = {}
        for name, factory in (
            ("gl", GreedyLinkSelector),
            ("random", RandomSelector),
        ):
            server = SimulatedWebDatabase(small_ebay, page_size=10)
            engine = CrawlerEngine(server, factory(), seed=5)
            result = engine.crawl([seed_value], target_coverage=0.8)
            costs[name] = result.communication_rounds
        assert costs["gl"] <= costs["random"]
