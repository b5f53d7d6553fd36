"""TelemetrySink: events in, registry values out."""

import pytest

from repro.core import Query
from repro.metrics import MetricsRegistry, TelemetrySink
from repro.server import SimulatedWebDatabase
from repro.runtime.events import (
    CheckpointWritten,
    CrawlStopped,
    EventBus,
    ExperimentSuiteCompleted,
    ExperimentTaskCompleted,
    PageFetched,
    QueryAborted,
    QueryFailed,
    QueryIssued,
    QueryRejected,
    RecordsHarvested,
    RetryAttempted,
)

QUERY = Query.equality("title", "x")


def make_bus_and_sink(**kwargs):
    bus = EventBus()
    sink = bus.attach(TelemetrySink(**kwargs))
    return bus, sink


class TestEventCounters:
    def test_query_lifecycle_counters(self):
        bus, sink = make_bus_and_sink()
        bus.emit(QueryIssued(query=QUERY), policy="bfs")
        bus.emit(QueryRejected(query=QUERY), policy="bfs")
        bus.emit(QueryFailed(query=QUERY, pages_fetched=1), policy="bfs")
        bus.emit(
            QueryAborted(query=QUERY, pages_fetched=2, pages_saved=3),
            policy="bfs",
        )
        assert sink.queries_issued.value(policy="bfs") == 1
        assert sink.queries_rejected.value(policy="bfs") == 1
        assert sink.queries_failed.value(policy="bfs") == 1
        assert sink.queries_aborted.value(policy="bfs") == 1
        assert sink.rounds_saved.value(policy="bfs") == 3

    def test_page_and_record_counters(self):
        bus, sink = make_bus_and_sink()
        bus.emit(
            PageFetched(query=QUERY, page_number=1, records=10, new_records=4),
            policy="bfs",
        )
        bus.emit(
            PageFetched(query=QUERY, page_number=2, records=10, new_records=10),
            policy="bfs",
        )
        assert sink.pages_fetched.value(policy="bfs") == 2
        assert sink.records_new.value(policy="bfs") == 14
        assert sink.records_duplicate.value(policy="bfs") == 6

    def test_retry_and_backoff(self):
        bus, sink = make_bus_and_sink()
        bus.emit(
            RetryAttempted(query=QUERY, attempt=1, backoff_rounds=4),
            policy="bfs",
        )
        assert sink.retries.value(policy="bfs") == 1
        assert sink.backoff_rounds.value(policy="bfs") == 4

    def test_checkpoints_split_by_snapshot(self):
        bus, sink = make_bus_and_sink()
        bus.emit(CheckpointWritten(step=1, snapshot=True), policy="bfs")
        bus.emit(CheckpointWritten(step=2, snapshot=False), policy="bfs")
        assert sink.checkpoints.value(policy="bfs", snapshot="full") == 1
        assert sink.checkpoints.value(policy="bfs", snapshot="marker") == 1

    def test_stop_reason(self):
        bus, sink = make_bus_and_sink()
        bus.emit(
            CrawlStopped(stopped_by="max-rounds", rounds=9, records=40),
            policy="bfs",
        )
        assert sink.stops.value(policy="bfs", stopped_by="max-rounds") == 1
        assert sink.records_gauge.value() == 40
        assert sink.rounds_gauge.value() == 9

    def test_experiment_rollups(self):
        bus, sink = make_bus_and_sink()
        bus.emit(ExperimentTaskCompleted(label="bfs", seconds=1.5))
        bus.emit(ExperimentTaskCompleted(label="bfs", seconds=0.5))
        bus.emit(ExperimentSuiteCompleted(tasks=2, wall_seconds=1.25))
        assert sink.tasks_completed.value(label="bfs") == 2
        assert sink.task_seconds.value(label="bfs") == pytest.approx(2.0)
        assert sink.suite_wall_seconds.value() == pytest.approx(1.25)


def step_event(step, new, pages, total, rounds):
    return RecordsHarvested(
        query=QUERY,
        step=step,
        new_records=new,
        pages_fetched=pages,
        records_total=total,
        rounds=rounds,
    )


class TestStepDerivedSignals:
    def test_coverage_needs_truth_size(self):
        bus, sink = make_bus_and_sink(truth_size=200)
        bus.emit(step_event(1, new=50, pages=5, total=50, rounds=5), policy="g")
        assert sink.coverage.value() == pytest.approx(0.25)
        assert sink.steps_gauge.value() == 1

        bus2, sink2 = make_bus_and_sink()  # no truth size
        bus2.emit(step_event(1, 50, 5, 50, 5), policy="g")
        assert sink2.coverage.value() == 0.0

    def test_cumulative_vs_rolling_harvest_rate(self):
        bus, sink = make_bus_and_sink(rolling_window=2)
        # PageFetched feeds the cumulative rate's denominator.
        for new in (10, 10, 0, 0):
            bus.emit(
                PageFetched(query=QUERY, records=10, new_records=new),
                policy="g",
            )
        bus.emit(step_event(1, 20, 2, 20, 2), policy="g")
        bus.emit(step_event(2, 0, 1, 20, 3), policy="g")
        bus.emit(step_event(3, 0, 1, 20, 4), policy="g")
        # Cumulative: 20 new over 4 pages; rolling window (last 2
        # queries): 0 new over 2 pages.
        assert sink.harvest_rate.value(policy="g") == pytest.approx(5.0)
        assert sink.harvest_rate_rolling.value(policy="g") == 0.0

    def test_pages_per_query_histogram(self):
        bus, sink = make_bus_and_sink()
        bus.emit(step_event(1, 5, 3, 5, 3), policy="g")
        assert sink.pages_per_query.count(policy="g") == 1
        assert sink.pages_per_query.sum(policy="g") == 3

    def test_wall_time_tracking_toggle(self):
        ticks = iter([1.0, 2.0, 2.5])
        bus, sink = make_bus_and_sink(clock=lambda: next(ticks))
        bus.emit(step_event(1, 1, 1, 1, 1), policy="g")
        bus.emit(step_event(2, 1, 1, 2, 2), policy="g")
        assert sink.step_seconds.count(policy="g") == 1
        assert sink.step_seconds.sum(policy="g") == pytest.approx(1.0)

        bus2, sink2 = make_bus_and_sink(track_wall_time=False)
        bus2.emit(step_event(1, 1, 1, 1, 1), policy="g")
        bus2.emit(step_event(2, 1, 1, 2, 2), policy="g")
        assert sink2.step_seconds.count(policy="g") == 0

    def test_rolling_window_validation(self):
        with pytest.raises(ValueError):
            TelemetrySink(rolling_window=0)


class TestSampleServer:
    def test_reads_cache_gauges(self, books_server):
        sink = TelemetrySink()
        orbit = Query.equality("publisher", "orbit")
        books_server.submit(orbit)
        books_server.submit(orbit)
        sink.sample_server(books_server)
        hits = sink.cache_hits.value()
        misses = sink.cache_misses.value()
        assert hits + misses > 0
        assert sink.rounds_gauge.value() == books_server.rounds

    def test_fresh_server_leaves_no_stale_cache_figure(self, books, books_server):
        """A resumed crawl samples a fresh server: every cache figure in
        the registry is that server's, none survives from before."""
        sink = TelemetrySink()
        orbit = Query.equality("publisher", "orbit")
        books_server.submit(orbit)
        books_server.submit(orbit, 2)
        sink.sample_server(books_server)
        sink.sample_server(SimulatedWebDatabase(books, page_size=2))
        cache = {
            metric.name: metric.value()
            for metric in sink.registry
            if metric.name.startswith("crawl_order_cache")
        }
        assert cache == {
            "crawl_order_cache_hits": 0.0,
            "crawl_order_cache_misses": 0.0,
        }

    def test_tolerates_logless_server(self):
        sink = TelemetrySink()
        sink.sample_server(object())  # no .log: silently a no-op
        assert sink.cache_hits.value() == 0

    def test_shared_registry(self):
        reg = MetricsRegistry()
        a = TelemetrySink(registry=reg)
        b = TelemetrySink(registry=reg)
        assert a.registry is b.registry is reg


class TestSampleSelector:
    class FakeSelector:
        name = "greedy-link"

        def __init__(self, stats):
            self._stats = stats

        def frontier_stats(self):
            return self._stats

    def test_folds_frontier_counters(self):
        sink = TelemetrySink()
        sink.sample_selector(
            self.FakeSelector(
                {"pending": 42, "dirty_total": 7, "rescored_total": 9}
            )
        )
        assert sink.frontier_rescored.value(policy="greedy-link") == 9
        assert sink.frontier_dirty.value(policy="greedy-link") == 7
        assert sink.frontier_pending.value() == 42

    def test_explicit_policy_label_wins(self):
        sink = TelemetrySink()
        sink.sample_selector(
            self.FakeSelector({"dirty_total": 1, "rescored_total": 1}),
            policy="gl-tuned",
        )
        assert sink.frontier_rescored.value(policy="gl-tuned") == 1
        assert sink.frontier_rescored.value(policy="greedy-link") == 0

    def test_counters_accumulate_across_crawls(self):
        """One sink, many grid tasks: lifetime totals must sum."""
        sink = TelemetrySink()
        for _ in range(3):
            sink.sample_selector(
                self.FakeSelector({"dirty_total": 2, "rescored_total": 5})
            )
        assert sink.frontier_rescored.value(policy="greedy-link") == 15
        assert sink.frontier_dirty.value(policy="greedy-link") == 6

    def test_noop_without_frontier_stats(self):
        sink = TelemetrySink()
        sink.sample_selector(object())  # e.g. MMMI: no interned frontier
        sink.sample_selector(self.FakeSelector(None))  # stats disabled
        assert sink.frontier_rescored.value(policy="?") == 0

    def test_prometheus_round_trip(self):
        """The new counters must survive the text exposition format."""
        from repro.metrics.exporters import prometheus_text

        sink = TelemetrySink()
        sink.sample_selector(
            self.FakeSelector(
                {"pending": 4, "dirty_total": 3, "rescored_total": 8}
            )
        )
        text = prometheus_text(sink.registry)
        assert "# TYPE frontier_rescored_total counter" in text
        assert 'frontier_rescored_total{policy="greedy-link"} 8' in text
        assert 'frontier_dirty_total{policy="greedy-link"} 3' in text
        assert "# TYPE frontier_pending gauge" in text
        assert "frontier_pending 4" in text
