"""Tests for exporting a harvest as a table (re-crawl bootstrapping)."""

from repro.crawler import CrawlerEngine
from repro.domain import build_domain_table
from repro.policies import BreadthFirstSelector, DomainKnowledgeSelector
from repro.server import SimulatedWebDatabase


class TestToTable:
    def crawl(self, books):
        server = SimulatedWebDatabase(books, page_size=2)
        engine = CrawlerEngine(server, BreadthFirstSelector(), seed=0)
        engine.crawl([("publisher", "orbit")])
        return engine.local_db

    def test_export_preserves_records(self, books):
        local = self.crawl(books)
        table = local.to_table(books.schema, name="harvest-1")
        assert len(table) == len(local)
        assert table.name == "harvest-1"
        for record_id in local.record_ids():
            assert table.get(record_id).fields == books.get(record_id).fields

    def test_export_is_queryable(self, books):
        local = self.crawl(books)
        table = local.to_table(books.schema)
        # All harvested orbit books must be findable in the export.
        assert len(table.match_equality("publisher", "orbit")) == 4

    def test_roundtrip_through_io(self, books, tmp_path):
        from repro import io

        local = self.crawl(books)
        path = tmp_path / "harvest.json"
        io.save_table(local.to_table(books.schema), path)
        assert len(io.load_table(path)) == len(local)

    def test_self_bootstrap_recrawl(self, books):
        """Last crawl's harvest seeds the next crawl as a domain table."""
        local = self.crawl(books)
        harvest = local.to_table(books.schema)
        domain_table = build_domain_table(harvest)
        server = SimulatedWebDatabase(books, page_size=2)
        engine = CrawlerEngine(
            server, DomainKnowledgeSelector(domain_table), seed=1
        )
        result = engine.crawl([], allow_empty_seeds=True)
        # The self-domain table spans the whole reachable component, so
        # the re-crawl recovers at least the previous harvest.
        assert result.records_harvested >= len(local)
