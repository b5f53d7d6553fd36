"""Unit tests for the omniscient oracle selector."""

from repro.crawler import CrawlerEngine
from repro.policies import BreadthFirstSelector, OracleSelector
from repro.server import SimulatedWebDatabase


class TestPlan:
    def test_plan_covers_everything_coverable(self, books):
        selector = OracleSelector(books, page_size=2)
        covered = set()
        for value in selector.plan:
            covered.update(books.match_equality(value.attribute, value.value))
        assert covered == set(books.record_ids())

    def test_plan_restricted_to_queriable(self, books):
        selector = OracleSelector(books, page_size=2, queriable_only=True)
        assert all(v.attribute != "price" for v in selector.plan)

    def test_replays_in_order_then_exhausts(self, books):
        selector = OracleSelector(books, page_size=2)
        plan = selector.plan
        replayed = []
        while True:
            value = selector.next_query()
            if value is None:
                break
            replayed.append(value)
        assert replayed == plan

    def test_ignores_candidates(self, books):
        selector = OracleSelector(books, page_size=2)
        from repro.core import AttributeValue

        selector.add_candidate(AttributeValue("publisher", "orbit"))
        assert selector.plan == OracleSelector(books, page_size=2).plan


class TestCalibration:
    def test_oracle_full_coverage(self, books):
        server = SimulatedWebDatabase(books, page_size=2)
        engine = CrawlerEngine(server, OracleSelector(books, page_size=2), seed=0)
        result = engine.crawl([("publisher", "orbit")])
        # Oracle reaches even the island record (it knows the whole graph).
        assert result.coverage == 1.0

    def test_oracle_cheaper_than_bfs(self, small_ebay):
        seed_value = next(
            value
            for value in small_ebay.distinct_values("seller")
            if small_ebay.frequency(value) >= 3
        )
        costs = {}
        for name, factory in (
            ("oracle", lambda: OracleSelector(small_ebay, page_size=10)),
            ("bfs", BreadthFirstSelector),
        ):
            server = SimulatedWebDatabase(small_ebay, page_size=10)
            engine = CrawlerEngine(server, factory(), seed=2)
            result = engine.crawl([seed_value], target_coverage=0.8)
            costs[name] = result.communication_rounds
        assert costs["oracle"] <= costs["bfs"]
