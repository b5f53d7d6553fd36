"""Unit tests for the Min-Max Mutual-Information selector."""

import gc
import math
import random

import pytest

from repro.core import AttributeValue, CrawlError, Query, sample_seed_values
from repro.crawler import CrawlerContext, CrawlerEngine, LocalDatabase
from repro.datasets.registry import load_dataset
from repro.policies import MinMaxMutualInformationSelector
from repro.server import QueryInterface, SimulatedWebDatabase
from tests.conftest import make_record


def AV(attribute, value):
    return AttributeValue(attribute, value)


def bind(selector):
    context = CrawlerContext(
        local_db=LocalDatabase(track_cooccurrence=True),
        interface=QueryInterface(frozenset({"a", "b"})),
        page_size=10,
        rng=random.Random(0),
    )
    selector.bind(context)
    return selector, context


def load_correlated_world(context):
    """'paired' always co-occurs with the issued 'lead'; 'free' does not."""
    records = [
        make_record(1, a="lead", b="paired"),
        make_record(2, a="lead", b="paired"),
        make_record(3, a="lead", b="paired"),
        make_record(4, a="other", b="free"),
        make_record(5, a="other2", b="free"),
    ]
    for record in records:
        context.local_db.add(record)
    context.queried_values.add(AV("a", "lead"))
    context.lqueried.append(Query.equality("a", "lead"))
    return records


class TestValidation:
    def test_bad_batch_size(self):
        with pytest.raises(CrawlError):
            MinMaxMutualInformationSelector(batch_size=0)

    def test_bad_aggregate(self):
        with pytest.raises(CrawlError):
            MinMaxMutualInformationSelector(aggregate="median")

    def test_bad_popularity_weight(self):
        with pytest.raises(CrawlError):
            MinMaxMutualInformationSelector(popularity_weight=-1)


class TestDependencyScore:
    def test_correlated_value_scores_higher(self):
        selector, context = bind(MinMaxMutualInformationSelector())
        load_correlated_world(context)
        paired = selector.dependency_score(AV("b", "paired"))
        free = selector.dependency_score(AV("b", "free"))
        assert paired > 0
        assert free == -math.inf

    def test_max_aggregate_takes_worst(self):
        selector, context = bind(MinMaxMutualInformationSelector(aggregate="max"))
        load_correlated_world(context)
        # Add a second issued query weakly tied to "paired".
        context.local_db.add(make_record(6, a="lead2", b="paired"))
        context.local_db.add(make_record(7, a="lead2", b="zzz"))
        context.queried_values.add(AV("a", "lead2"))
        strong = context.local_db.pmi(AV("b", "paired"), AV("a", "lead"))
        weak = context.local_db.pmi(AV("b", "paired"), AV("a", "lead2"))
        score = selector.dependency_score(AV("b", "paired"))
        assert score == pytest.approx(max(strong, weak))

    def test_mean_aggregate(self):
        selector, context = bind(MinMaxMutualInformationSelector(aggregate="mean"))
        load_correlated_world(context)
        context.local_db.add(make_record(6, a="lead2", b="paired"))
        context.local_db.add(make_record(7, a="lead2", b="zzz"))
        context.queried_values.add(AV("a", "lead2"))
        strong = context.local_db.pmi(AV("b", "paired"), AV("a", "lead"))
        weak = context.local_db.pmi(AV("b", "paired"), AV("a", "lead2"))
        score = selector.dependency_score(AV("b", "paired"))
        assert score == pytest.approx((strong + weak) / 2)


class TestSelection:
    def test_prefers_independent_candidates(self):
        selector, context = bind(
            MinMaxMutualInformationSelector(popularity_weight=0.0)
        )
        load_correlated_world(context)
        selector.add_candidate(AV("b", "paired"))
        selector.add_candidate(AV("b", "free"))
        assert selector.next_query() == AV("b", "free")
        assert selector.next_query() == AV("b", "paired")
        assert selector.next_query() is None

    def test_popularity_weight_can_promote_popular_dependents(self):
        selector, context = bind(
            MinMaxMutualInformationSelector(popularity_weight=10.0)
        )
        load_correlated_world(context)
        # "paired" has degree 1 (lead) + ... vs "free" degree 2; under a
        # huge popularity weight the degree term dominates dependency.
        selector.add_candidate(AV("b", "paired"))
        selector.add_candidate(AV("b", "free"))
        first = selector.next_query()
        scores = {
            value: selector.selection_score(value)
            for value in (AV("b", "paired"), AV("b", "free"))
        }
        assert first == min(scores, key=scores.get)

    def test_skips_already_queried_candidates(self):
        selector, context = bind(MinMaxMutualInformationSelector())
        load_correlated_world(context)
        selector.add_candidate(AV("a", "lead"))  # already queried
        assert selector.next_query() is None

    def test_candidates_added_between_batches_surface(self):
        selector, context = bind(MinMaxMutualInformationSelector(batch_size=100))
        load_correlated_world(context)
        selector.add_candidate(AV("b", "free"))
        assert selector.next_query() == AV("b", "free")
        selector.add_candidate(AV("b", "paired"))
        assert selector.next_query() == AV("b", "paired")


def collector_passes() -> int:
    """Collector passes of any generation run so far in this process."""
    return sum(stats["collections"] for stats in gc.get_stats())


class PassCountingSelector(MinMaxMutualInformationSelector):
    """MMMI recording each batch recompute's size and collector passes."""

    def __init__(self) -> None:
        super().__init__()
        self.recomputes = []  # (pending candidates, passes inside)

    def _order_interned(self, local, context):
        pending = len(self._candidates)
        before = collector_passes()
        ordered = super()._order_interned(local, context)
        self.recomputes.append((pending, collector_passes() - before))
        return ordered


class TestRecomputeCollector:
    def test_large_recompute_runs_at_most_one_collection(self):
        """The recompute must not feed the collector's old generation.

        Per-candidate containers alive across a recompute (thousands of
        them at 4,844 candidates) trigger young passes that promote them
        towards the old generation and its full passes.  With only the
        ``batch_size`` heap entries alive, a recompute runs at most the
        one pass the allocation counter was already due.
        """
        assert gc.isenabled()
        table = load_dataset("dblp", 4000, 5)
        seeds = sample_seed_values(table, 1, random.Random(5), min_frequency=2)
        selector = PassCountingSelector()
        engine = CrawlerEngine(
            SimulatedWebDatabase(table, page_size=10), selector, seed=5
        )
        engine.crawl(seeds, target_coverage=0.9)
        large = [
            passes for pending, passes in selector.recomputes if pending >= 4000
        ]
        assert large, "the crawl never reached a 4,000-candidate recompute"
        assert max(large) <= 1
