"""Unit and property tests for result pagination (the cost model's unit)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PaginationError, Query, Record, Schema
from repro.server import page_count, paginate

schema = Schema.of("title")
QUERY = Query.equality("title", "x")


def records(n):
    return [Record.build(i, schema, title=f"t{i}") for i in range(n)]


class TestPageCount:
    def test_definition_2_3(self):
        # The paper's example: 95 matches, 10 per page -> 10 rounds.
        assert page_count(95, 10) == 10

    def test_exact_multiple(self):
        assert page_count(100, 10) == 10

    def test_zero_matches_zero_pages(self):
        assert page_count(0, 10) == 0

    def test_limit_truncates(self):
        assert page_count(95, 10, result_limit=32) == 4

    def test_limit_above_matches_is_noop(self):
        assert page_count(15, 10, result_limit=100) == 2


class TestPaginate:
    def test_first_page(self):
        page = paginate(QUERY, records(25), 1, 10)
        assert [r.record_id for r in page.records] == list(range(10))
        assert page.total_matches == 25
        assert page.num_pages == 3
        assert page.has_next

    def test_last_page_partial(self):
        page = paginate(QUERY, records(25), 3, 10)
        assert len(page.records) == 5
        assert not page.has_next

    def test_out_of_range_raises(self):
        with pytest.raises(PaginationError):
            paginate(QUERY, records(25), 4, 10)

    def test_zero_based_rejected(self):
        with pytest.raises(PaginationError):
            paginate(QUERY, records(5), 0, 10)

    def test_empty_result_first_page_ok(self):
        page = paginate(QUERY, [], 1, 10)
        assert page.is_empty
        assert page.num_pages == 0
        assert not page.has_next

    def test_total_hidden_when_not_reported(self):
        page = paginate(QUERY, records(5), 1, 10, report_total=False)
        assert page.total_matches is None
        assert page.accessible_matches == 5

    def test_result_limit_truncates_accessible(self):
        page = paginate(QUERY, records(25), 1, 10, result_limit=12)
        assert page.total_matches == 25
        assert page.accessible_matches == 12
        assert page.num_pages == 2
        last = paginate(QUERY, records(25), 2, 10, result_limit=12)
        assert len(last.records) == 2

    def test_bad_page_size(self):
        with pytest.raises(PaginationError):
            paginate(QUERY, records(3), 1, 0)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=60),
    k=st.integers(min_value=1, max_value=12),
    limit=st.one_of(st.none(), st.integers(min_value=1, max_value=80)),
)
def test_property_pages_partition_accessible_prefix(n, k, limit):
    """Union of all pages == the accessible prefix; sizes sum correctly."""
    matches = records(n)
    accessible = n if limit is None else min(n, limit)
    num_pages = math.ceil(accessible / k)
    seen = []
    for page_number in range(1, num_pages + 1):
        page = paginate(QUERY, matches, page_number, k, result_limit=limit)
        assert len(page.records) <= k
        assert page.num_pages == num_pages
        seen.extend(r.record_id for r in page.records)
    assert seen == [r.record_id for r in matches[:accessible]]
    # Definition 2.3: cost (pages) equals ceil(accessible / k).
    assert num_pages == page_count(n, k, limit)
