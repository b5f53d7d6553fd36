"""Tests for the incremental prepare/step/result engine API."""

import pytest

from repro.core import CrawlError
from repro.crawler import CrawlerEngine
from repro.policies import BreadthFirstSelector
from repro.server import SimulatedWebDatabase


def engine_for(books):
    server = SimulatedWebDatabase(books, page_size=2)
    return CrawlerEngine(server, BreadthFirstSelector(), seed=0)


class TestStepApi:
    def test_step_before_prepare_rejected(self, books):
        engine = engine_for(books)
        with pytest.raises(CrawlError):
            engine.step()

    def test_single_step_executes_one_query(self, books):
        engine = engine_for(books)
        engine.prepare([("publisher", "orbit")])
        outcome = engine.step()
        assert outcome is not None
        assert str(outcome.query) == "publisher='orbit'"
        assert len(engine.local_db) == 4

    def test_stepping_to_exhaustion_matches_crawl(self, books):
        stepped = engine_for(books)
        stepped.prepare([("publisher", "orbit")])
        steps = 0
        while stepped.step() is not None:
            steps += 1
        closed = engine_for(books).crawl([("publisher", "orbit")])
        result = stepped.result()
        assert result.records_harvested == closed.records_harvested
        assert result.communication_rounds == closed.communication_rounds
        assert result.queries_issued == closed.queries_issued == steps
        assert result.stopped_by == "frontier-exhausted"

    def test_result_snapshot_mid_crawl(self, books):
        engine = engine_for(books)
        engine.prepare([("publisher", "orbit")])
        engine.step()
        snapshot = engine.result()
        assert snapshot.stopped_by == "in-progress"
        assert snapshot.queries_issued == 1
        engine.step()
        later = engine.result()
        assert later.queries_issued == 2
        assert later.records_harvested >= snapshot.records_harvested

    def test_prepare_twice_rejected(self, books):
        engine = engine_for(books)
        engine.prepare([("publisher", "orbit")])
        with pytest.raises(CrawlError):
            engine.prepare([("publisher", "mitp")])

    def test_crawl_after_prepare_rejected(self, books):
        engine = engine_for(books)
        engine.prepare([("publisher", "orbit")])
        with pytest.raises(CrawlError):
            engine.crawl([("publisher", "orbit")])

    def test_step_after_exhaustion_stays_none(self, books):
        engine = engine_for(books)
        engine.prepare([("publisher", "lonepress")])
        while engine.step() is not None:
            pass
        assert engine.step() is None
        assert engine.result().stopped_by == "frontier-exhausted"


class TestStepUntil:
    """The engine's one stopping loop, as the durable runtime drives it."""

    def test_suspends_after_steps_and_calls_the_hook(self, books):
        engine = engine_for(books)
        engine.prepare([("publisher", "orbit")])
        seen = []
        stopped_by = engine.step_until(stop_after_steps=2, on_step=seen.append)
        assert stopped_by == "suspended"
        assert engine.steps == 2
        assert [str(o.query) for o in seen] == [
            str(q) for q in engine.context.lqueried
        ]
        # Steps count per call: the next call may take two more.
        assert engine.step_until(stop_after_steps=2) == "suspended"
        assert engine.steps == 4

    def test_criteria_fire_in_order(self, books):
        engine = engine_for(books)
        engine.prepare([("publisher", "orbit")])
        engine.step()
        # Every criterion holds: the first checked one names the stop.
        assert (
            engine.step_until(
                max_rounds=0, max_queries=0, target_coverage=0.0,
                stop_after_steps=0,
            )
            == "max-rounds"
        )
        assert engine.step_until(max_queries=1, stop_after_steps=0) == "max-queries"
        assert (
            engine.step_until(target_coverage=0.0, stop_after_steps=0)
            == "target-coverage"
        )
        assert engine.step_until() == "frontier-exhausted"

    def test_finish_matches_crawl(self, books):
        stepped = engine_for(books)
        stepped.prepare([("publisher", "orbit")])
        result = stepped.finish(stepped.step_until(max_queries=3))
        assert result == engine_for(books).crawl(
            [("publisher", "orbit")], max_queries=3
        )
