"""Unit tests for the simulated web database (server behaviour)."""

import pytest

from repro.core import PaginationError, Query, UnsupportedQueryError
from repro.server import (
    QueryInterface,
    ResultLimitPolicy,
    SimulatedWebDatabase,
    parse_page,
)


class TestSubmit:
    def test_returns_projected_page(self, books):
        server = SimulatedWebDatabase(books, page_size=2)
        page = server.submit(Query.equality("publisher", "orbit"))
        assert page.total_matches == 4
        assert page.num_pages == 2
        assert len(page.records) == 2

    def test_each_page_request_costs_one_round(self, books):
        server = SimulatedWebDatabase(books, page_size=2)
        query = Query.equality("publisher", "orbit")
        server.submit(query, 1)
        server.submit(query, 2)
        assert server.rounds == 2

    def test_zero_match_query_costs_one_round(self, books):
        server = SimulatedWebDatabase(books, page_size=2)
        page = server.submit(Query.equality("publisher", "ghost"))
        assert page.is_empty
        assert server.rounds == 1

    def test_rejected_query_costs_nothing(self, books):
        server = SimulatedWebDatabase(books, page_size=2)
        with pytest.raises(UnsupportedQueryError):
            server.submit(Query.equality("price", "10"))  # not queriable
        assert server.rounds == 0

    def test_out_of_range_page_charged(self, books):
        server = SimulatedWebDatabase(books, page_size=2)
        with pytest.raises(PaginationError):
            server.submit(Query.equality("publisher", "orbit"), 5)
        assert server.rounds == 1

    def test_keyword_needs_keyword_interface(self, books):
        server = SimulatedWebDatabase(books, page_size=2)
        with pytest.raises(UnsupportedQueryError):
            server.submit(Query.keyword("orbit"))

    def test_keyword_interface_matches_any_attribute(self, books):
        server = SimulatedWebDatabase(
            books, page_size=10, interface=QueryInterface.keyword_only("books")
        )
        page = server.submit(Query.keyword("knuth"))
        assert page.total_matches == 3

    def test_report_total_toggle(self, books):
        server = SimulatedWebDatabase(books, page_size=2, report_total=False)
        page = server.submit(Query.equality("publisher", "orbit"))
        assert page.total_matches is None
        assert page.accessible_matches == 4

    def test_hidden_attribute_not_in_results(self):
        from repro.core import RelationalTable, Schema

        schema = Schema.of("title", secret={"displayed": False})
        table = RelationalTable(schema)
        table.insert_rows([{"title": "a", "secret": "s"}])
        server = SimulatedWebDatabase(table)
        page = server.submit(Query.equality("secret", "s"))
        assert page.total_matches == 1
        assert page.records[0].values_of("secret") == ()


class TestLimits:
    def test_limit_caps_pages(self, books):
        server = SimulatedWebDatabase(
            books, page_size=2, limit_policy=ResultLimitPolicy(limit=3)
        )
        page = server.submit(Query.equality("publisher", "orbit"))
        assert page.total_matches == 4
        assert page.accessible_matches == 3
        assert page.num_pages == 2
        last = server.submit(Query.equality("publisher", "orbit"), 2)
        assert len(last.records) == 1

    def test_ranked_ordering_stable_across_requests(self, books):
        server = SimulatedWebDatabase(
            books,
            page_size=2,
            limit_policy=ResultLimitPolicy(limit=3, ordering="ranked", seed=5),
        )
        query = Query.equality("publisher", "orbit")
        first = server.submit(query, 1)
        again = server.submit(query, 1)
        assert [r.record_id for r in first.records] == [
            r.record_id for r in again.records
        ]


class TestXml:
    def test_submit_xml_roundtrips(self, books):
        server = SimulatedWebDatabase(books, page_size=2)
        document = server.submit_xml(Query.equality("publisher", "orbit"))
        page = parse_page(document)
        assert page.total_matches == 4
        assert len(page.records) == 2

    def test_xml_costs_rounds_too(self, books):
        server = SimulatedWebDatabase(books, page_size=2)
        server.submit_xml(Query.equality("publisher", "orbit"))
        assert server.rounds == 1


class TestOrderCache:
    """The per-query result-ordering LRU: bounded, counted, harmless."""

    def test_repeat_query_hits_cache(self, books):
        server = SimulatedWebDatabase(books, page_size=2)
        query = Query.equality("publisher", "orbit")
        server.submit(query, 1)
        server.submit(query, 2)
        assert server.log.cache_misses == 1
        assert server.log.cache_hits == 1

    def test_cache_never_exceeds_bound(self, books):
        server = SimulatedWebDatabase(books, page_size=2, order_cache_size=2)
        for title in ("alpha", "beta", "gamma", "delta"):
            server.submit(Query.equality("title", title))
        assert len(server._order_cache) == 2
        assert server.log.cache_misses == 4

    def test_lru_keeps_recently_used(self, books):
        server = SimulatedWebDatabase(books, page_size=2, order_cache_size=2)
        orbit = Query.equality("publisher", "orbit")
        mitp = Query.equality("publisher", "mitp")
        server.submit(orbit)
        server.submit(mitp)
        server.submit(orbit)  # refresh orbit: mitp is now oldest
        server.submit(Query.equality("publisher", "southbank"))  # evicts mitp
        server.submit(orbit)
        assert server.log.cache_hits == 2
        server.submit(mitp)  # evicted — recomputed
        assert server.log.cache_misses == 4

    def test_eviction_never_changes_results(self, books):
        # Ranked truncation orders by a pure (seed, query, id) hash, so
        # a recomputed entry must equal the evicted one exactly.
        def build(cache_size):
            return SimulatedWebDatabase(
                books,
                page_size=2,
                order_cache_size=cache_size,
                limit_policy=ResultLimitPolicy(limit=3, ordering="ranked", seed=5),
            )

        queries = [
            Query.equality("publisher", name)
            for name in ("orbit", "mitp", "southbank", "orbit", "mitp")
        ]
        thrashing, roomy = build(1), build(16)
        for query in queries:
            a = thrashing.submit(query)
            b = roomy.submit(query)
            assert [r.record_id for r in a.records] == [
                r.record_id for r in b.records
            ]
        assert thrashing.log.cache_hits == 0
        assert roomy.log.cache_hits == 2

    def test_invalid_cache_size_rejected(self, books):
        with pytest.raises(ValueError):
            SimulatedWebDatabase(books, order_cache_size=0)


class TestTruth:
    def test_truth_size(self, books):
        assert SimulatedWebDatabase(books).truth_size() == 9

    def test_truth_count(self, books):
        server = SimulatedWebDatabase(books)
        assert server.truth_count(Query.equality("author", "knuth")) == 3

    def test_truth_coverage(self, books):
        server = SimulatedWebDatabase(books)
        assert server.truth_coverage([0, 1, 2]) == pytest.approx(3 / 9)
        assert server.truth_coverage([0, 999]) == pytest.approx(1 / 9)
