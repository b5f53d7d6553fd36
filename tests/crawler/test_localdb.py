"""Unit and property tests for the crawler's local database."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AttributeValue
from repro.crawler import CrawlerEngine, LocalDatabase
from repro.policies import GreedyLinkSelector
from repro.server import SimulatedWebDatabase
from tests.conftest import make_record


def AV(attribute, value):
    return AttributeValue(attribute, value)


class TestAdd:
    def test_new_record_true(self):
        local = LocalDatabase()
        assert local.add(make_record(1, a="x"))
        assert len(local) == 1

    def test_duplicate_false(self):
        local = LocalDatabase()
        record = make_record(1, a="x")
        assert local.add(record)
        assert not local.add(record)
        assert len(local) == 1

    def test_add_all_counts_new(self):
        local = LocalDatabase()
        records = [make_record(1, a="x"), make_record(2, a="y"), make_record(1, a="x")]
        assert local.add_all(records) == 2

    def test_contains_and_ids(self):
        local = LocalDatabase()
        local.add(make_record(5, a="x"))
        assert 5 in local
        assert 6 not in local
        assert local.record_ids() == [5]


class TestStatistics:
    def test_frequency_counts_matching_records(self):
        local = LocalDatabase()
        local.add(make_record(1, a="x", b="p"))
        local.add(make_record(2, a="x", b="q"))
        assert local.frequency(AV("a", "x")) == 2
        assert local.frequency(AV("b", "p")) == 1
        assert local.frequency(AV("a", "ghost")) == 0

    def test_degree_is_distinct_neighbors(self):
        local = LocalDatabase()
        local.add(make_record(1, a="x", b="p"))
        local.add(make_record(2, a="x", b="p"))  # same neighbourhood
        local.add(make_record(3, a="x", b="q"))
        assert local.degree(AV("a", "x")) == 2  # p and q
        assert local.degree(AV("b", "p")) == 1

    def test_neighbors(self):
        local = LocalDatabase()
        local.add(make_record(1, a="x", b="p", c="z"))
        assert local.neighbors(AV("a", "x")) == {AV("b", "p"), AV("c", "z")}

    def test_matching_ids(self):
        local = LocalDatabase()
        local.add(make_record(1, a="x"))
        local.add(make_record(4, a="x"))
        assert local.matching_ids(AV("a", "x")) == {1, 4}

    def test_keyword_frequency_spans_attributes(self):
        local = LocalDatabase()
        local.add(make_record(1, a="orbit"))
        local.add(make_record(2, b="orbit"))
        assert local.keyword_frequency("orbit") == 2

    def test_distinct_values_sorted(self):
        local = LocalDatabase()
        local.add(make_record(1, b="y", a="x"))
        values = local.distinct_values()
        assert values == sorted(values)
        assert local.num_distinct_values() == 2

    def test_values_of_attribute(self):
        local = LocalDatabase()
        local.add(make_record(1, a="x", b="y"))
        assert local.values_of_attribute("a") == [AV("a", "x")]


class TestLazyPostings:
    def test_gl_crawl_allocates_no_postings_until_read(self, small_ebay):
        """GL reads frequencies and degrees only, so its crawl creates no
        posting arrays; the first posting read builds them in full."""
        seed = next(
            value
            for value in small_ebay.distinct_values("seller")
            if small_ebay.frequency(value) >= 3
        )
        engine = CrawlerEngine(
            SimulatedWebDatabase(small_ebay, page_size=10),
            GreedyLinkSelector(),
            seed=3,
        )
        engine.crawl([seed], max_queries=40)
        local = engine.local_db
        assert len(local) > 0
        assert local._posting_lists == {}
        assert local.matching_ids(seed) == frozenset(
            record.record_id
            for record in local
            if seed in record.attribute_values()
        )
        assert len(local._posting_lists) == local.num_distinct_values()


class TestCooccurrence:
    def test_tracked_mode(self):
        local = LocalDatabase(track_cooccurrence=True)
        local.add(make_record(1, a="x", b="p"))
        local.add(make_record(2, a="x", b="p"))
        local.add(make_record(3, a="x", b="q"))
        assert local.cooccurrence(AV("a", "x"), AV("b", "p")) == 2
        assert local.cooccurrence(AV("a", "x"), AV("b", "q")) == 1
        assert local.cooccurrence(AV("b", "p"), AV("b", "q")) == 0

    def test_untracked_falls_back_to_postings(self):
        local = LocalDatabase(track_cooccurrence=False)
        local.add(make_record(1, a="x", b="p"))
        local.add(make_record(2, a="x", b="p"))
        assert local.cooccurrence(AV("a", "x"), AV("b", "p")) == 2

    def test_modes_agree(self):
        records = [
            make_record(1, a="x", b="p"),
            make_record(2, a="x", b="q"),
            make_record(3, a="y", b="p"),
        ]
        tracked, untracked = LocalDatabase(True), LocalDatabase(False)
        for record in records:
            tracked.add(record)
            untracked.add(record)
        for u in tracked.distinct_values():
            for v in tracked.distinct_values():
                assert tracked.cooccurrence(u, v) == untracked.cooccurrence(u, v)


class TestPmi:
    def test_independent_pair_pmi_zero(self):
        # P(x)=0.5, P(p)=0.5, P(x,p)=0.25 over 4 records: PMI = ln 1 = 0.
        local = LocalDatabase(track_cooccurrence=True)
        local.add(make_record(1, a="x", b="p"))
        local.add(make_record(2, a="x", b="q"))
        local.add(make_record(3, a="y", b="p"))
        local.add(make_record(4, a="y", b="q"))
        assert local.pmi(AV("a", "x"), AV("b", "p")) == pytest.approx(0.0)

    def test_perfect_dependency_positive(self):
        local = LocalDatabase(track_cooccurrence=True)
        local.add(make_record(1, a="x", b="p"))
        local.add(make_record(2, a="y", b="q"))
        # x and p always co-occur: PMI = ln(1*2/(1*1)) = ln 2.
        assert local.pmi(AV("a", "x"), AV("b", "p")) == pytest.approx(math.log(2))

    def test_never_cooccur_is_minus_inf(self):
        local = LocalDatabase(track_cooccurrence=True)
        local.add(make_record(1, a="x", b="p"))
        local.add(make_record(2, a="y", b="q"))
        assert local.pmi(AV("a", "x"), AV("b", "q")) == -math.inf

    def test_empty_db_is_minus_inf(self):
        local = LocalDatabase(track_cooccurrence=True)
        assert local.pmi(AV("a", "x"), AV("b", "p")) == -math.inf


class TestFrozenViews:
    """neighbors()/matching_ids() must never expose live internal sets."""

    def test_neighbors_view_is_immutable(self):
        local = LocalDatabase()
        local.add(make_record(1, a="x", b="p"))
        view = local.neighbors(AV("a", "x"))
        assert view == {AV("b", "p")}
        with pytest.raises(AttributeError):
            view.add(AV("b", "q"))

    def test_matching_ids_view_is_immutable(self):
        local = LocalDatabase()
        local.add(make_record(1, a="x"))
        view = local.matching_ids(AV("a", "x"))
        assert view == {1}
        with pytest.raises(AttributeError):
            view.discard(1)

    def test_held_view_detached_from_later_inserts(self):
        # A policy may hold a view across rounds; G_local must neither
        # leak into it nor be corruptible through it.
        local = LocalDatabase()
        local.add(make_record(1, a="x", b="p"))
        neighbors_before = local.neighbors(AV("a", "x"))
        ids_before = local.matching_ids(AV("a", "x"))
        local.add(make_record(2, a="x", b="q"))
        assert neighbors_before == {AV("b", "p")}
        assert ids_before == {1}
        assert local.neighbors(AV("a", "x")) == {AV("b", "p"), AV("b", "q")}
        assert local.matching_ids(AV("a", "x")) == {1, 2}
        assert local.degree(AV("a", "x")) == 2

    def test_unknown_value_empty_views(self):
        local = LocalDatabase()
        assert local.neighbors(AV("a", "nope")) == frozenset()
        assert local.matching_ids(AV("a", "nope")) == frozenset()

    def test_views_compose_with_set_algebra(self):
        # mmmi intersects neighbor views with plain sets — keep working.
        local = LocalDatabase()
        local.add(make_record(1, a="x", b="p", c="m"))
        queried = {AV("b", "p"), AV("z", "zz")}
        assert local.neighbors(AV("a", "x")) & queried == {AV("b", "p")}


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from("xyz"), st.sampled_from("pqr")),
        min_size=1,
        max_size=20,
    )
)
def test_property_degree_equals_local_avg_degree(pairs):
    """LocalDatabase's incremental degree must match a from-scratch AVG."""
    from repro.graph import build_avg

    records = [make_record(i, a=a, b=b) for i, (a, b) in enumerate(pairs)]
    local = LocalDatabase()
    for record in records:
        local.add(record)
    graph = build_avg(records)
    for node in graph.nodes:
        assert local.degree(node) == graph.degree(node)
        assert local.frequency(node) == graph.nodes[node]["frequency"]
