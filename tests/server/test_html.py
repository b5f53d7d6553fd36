"""Tests for HTML result rendering and wrapper extraction."""

import pytest

from repro.core import ConjunctiveQuery, Query, Record, Schema
from repro.server import (
    HtmlExtractionError,
    SimulatedWebDatabase,
    attribute_label,
    label_attribute,
    paginate,
    parse_html_page,
    render_html_page,
)

schema = Schema.of("title", "release_location", author={"multivalued": True})


def sample_page(report_total=True):
    matches = [
        Record.build(3, schema, title="alpha", author=["x", "y"],
                     release_location="new york"),
        Record.build(7, schema, title="beta & co", author=["z"]),
    ]
    return paginate(
        Query.equality("author", "x"), matches, 1, 10, report_total=report_total
    )


class TestLabels:
    def test_prettify(self):
        assert attribute_label("release_location") == "Release Location"

    def test_roundtrip(self):
        for attribute in ("title", "release_location", "subject_keywords"):
            assert label_attribute(attribute_label(attribute)) == attribute


class TestAnnotatedTemplate:
    def test_structure(self):
        document = render_html_page(sample_page(), annotated=True)
        assert '<ol class="results">' in document
        assert document.count('class="record"') == 2
        assert 'data-attr="author"' in document
        assert 'href="/item/3"' in document

    def test_roundtrip(self):
        page = sample_page()
        assert parse_html_page(render_html_page(page, annotated=True)) == page

    def test_roundtrip_without_total(self):
        page = sample_page(report_total=False)
        parsed = parse_html_page(render_html_page(page, annotated=True))
        assert parsed.total_matches is None
        assert parsed == page

    def test_html_escaping(self):
        page = sample_page()
        document = render_html_page(page, annotated=True)
        assert "beta &amp; co" in document
        parsed = parse_html_page(document)
        assert parsed.records[1].values_of("title") == ("beta & co",)


class TestPlainTemplate:
    def test_structure(self):
        document = render_html_page(sample_page(), annotated=False)
        assert '<table class="results">' in document
        assert "<th>Release Location</th>" in document
        assert "x | y" in document  # multi-value cell

    def test_roundtrip_via_header_induction(self):
        page = sample_page()
        assert parse_html_page(render_html_page(page, annotated=False)) == page

    def test_conjunctive_query_summary(self):
        matches = [Record.build(1, schema, title="alpha")]
        query = ConjunctiveQuery.equalities(title="alpha", release_location="x")
        page = paginate(query, matches, 1, 10)
        parsed = parse_html_page(render_html_page(page, annotated=False))
        assert parsed.query == query


class TestErrors:
    def test_non_template_rejected(self):
        with pytest.raises(HtmlExtractionError):
            parse_html_page("<html><body><p>hello</p></body></html>")


class TestServerIntegration:
    def test_submit_html_charges_round(self, books):
        server = SimulatedWebDatabase(books, page_size=2)
        document = server.submit_html(Query.equality("publisher", "orbit"))
        assert server.rounds == 1
        page = parse_html_page(document)
        assert page.total_matches == 4

    def test_extractor_sniffs_html(self, books):
        from repro.crawler import ResultExtractor

        server = SimulatedWebDatabase(books, page_size=2)
        extractor = ResultExtractor(server.interface)
        for annotated in (True, False):
            document = server.submit_html(
                Query.equality("publisher", "orbit"), annotated=annotated
            )
            extraction = extractor.extract(document)
            assert len(extraction.records) == 2
            assert extraction.candidate_values

    def test_html_and_xml_paths_agree(self, books):
        from repro.crawler import ResultExtractor

        server = SimulatedWebDatabase(books, page_size=2)
        extractor = ResultExtractor(server.interface)
        query = Query.equality("publisher", "orbit")
        from_xml = extractor.extract(server.submit_xml(query, 1))
        for annotated in (True, False):
            server2 = SimulatedWebDatabase(books, page_size=2)
            from_html = extractor.extract(
                server2.submit_html(query, 1, annotated=annotated)
            )
            assert [r.record_id for r in from_html.records] == [
                r.record_id for r in from_xml.records
            ]
            assert set(from_html.candidate_values) == set(from_xml.candidate_values)


class TestFullHtmlCrawl:
    def test_crawl_through_plain_html(self, books):
        """End-to-end: harvest everything through the wrapper only."""
        from repro.crawler import LocalDatabase, ResultExtractor

        server = SimulatedWebDatabase(books, page_size=2)
        extractor = ResultExtractor(server.interface)
        local = LocalDatabase()
        # Drive the loop manually through HTML documents.
        frontier = [("publisher", "orbit")]
        seen_queries = set()
        while frontier:
            attribute, value = frontier.pop(0)
            query = Query.equality(attribute, value)
            if query in seen_queries:
                continue
            seen_queries.add(query)
            page_number = 1
            while True:
                document = server.submit_html(query, page_number, annotated=False)
                page = parse_html_page(document)
                extraction = extractor.extract(document)
                local.add_all(extraction.records)
                for candidate in extraction.candidate_values:
                    frontier.append((candidate.attribute, candidate.value))
                if not page.has_next:
                    break
                page_number += 1
        assert len(local) == 8  # the orbit component
