"""Unit tests for the event bus, sinks, and metrics aggregation."""

from __future__ import annotations

import json

import pytest

from repro.core.query import Query
from repro.runtime.events import (
    CheckpointWritten,
    CrashAfterSteps,
    CrawlEvent,
    CrawlStopped,
    EventBus,
    EventSink,
    MetricsAggregator,
    PageFetched,
    QueryAborted,
    QueryFailed,
    QueryIssued,
    QueryRejected,
    RecordsHarvested,
    RetryAttempted,
    RingBufferSink,
    RoundsHistogram,
    SimulatedCrash,
)

Q = Query("honda", attribute="make")


class TestEventPayloads:
    def test_kinds_are_distinct_and_stable(self):
        kinds = {
            QueryIssued.kind,
            PageFetched.kind,
            QueryRejected.kind,
            QueryAborted.kind,
            QueryFailed.kind,
            RetryAttempted.kind,
            RecordsHarvested.kind,
            CheckpointWritten.kind,
            CrawlStopped.kind,
        }
        assert len(kinds) == 9


class TestEventBus:
    def test_no_sinks_is_a_noop(self):
        bus = EventBus()
        assert not bus.has_sinks
        bus.emit(QueryIssued(query=Q))  # must not raise

    def test_emit_stamps_policy_without_overwriting(self):
        bus = EventBus()
        ring = bus.attach(RingBufferSink())
        bus.emit(QueryIssued(query=Q), policy="gl")
        bus.emit(QueryIssued(query=Q, policy="explicit"), policy="gl")
        assert [e.policy for e in ring.events] == ["gl", "explicit"]

    def test_detach(self):
        bus = EventBus()
        ring = bus.attach(RingBufferSink())
        bus.detach(ring)
        assert not bus.has_sinks

    def test_sink_exceptions_propagate(self):
        class Boom(EventSink):
            def handle(self, event: CrawlEvent) -> None:
                raise RuntimeError("boom")

        bus = EventBus()
        bus.attach(Boom())
        with pytest.raises(RuntimeError):
            bus.emit(QueryIssued(query=Q))


class TestRingBufferSink:
    def test_capacity_evicts_oldest(self):
        ring = RingBufferSink(capacity=3)
        for step in range(5):
            ring.handle(RecordsHarvested(query=Q, step=step))
        assert len(ring) == 3
        assert [e.step for e in ring.events] == [2, 3, 4]

    def test_of_kind_filters(self):
        ring = RingBufferSink()
        ring.handle(QueryIssued(query=Q))
        ring.handle(RecordsHarvested(query=Q, step=1))
        assert len(ring.of_kind("query-issued")) == 1

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)

    def test_dropped_counts_evictions(self):
        ring = RingBufferSink(capacity=3)
        for step in range(3):
            ring.handle(RecordsHarvested(query=Q, step=step))
        assert ring.dropped == 0
        for step in range(3, 8):
            ring.handle(RecordsHarvested(query=Q, step=step))
        assert ring.dropped == 5
        assert len(ring) == 3  # still full, history truncated


class TestRoundsHistogram:
    def test_bucket_assignment(self):
        histogram = RoundsHistogram()
        for value in (1, 2, 3, 4, 5, 6, 100):
            histogram.observe(value)
        buckets = histogram.as_dict()
        assert buckets["1"] == 1
        assert buckets["2"] == 1
        assert buckets["3"] == 1
        assert buckets["4-5"] == 2
        assert buckets["6-8"] == 1
        assert buckets[">55"] == 1

    def test_mean(self):
        histogram = RoundsHistogram()
        assert histogram.mean == 0.0
        histogram.observe(2)
        histogram.observe(4)
        assert histogram.mean == 3.0

    def test_total_matches_bucket_sum(self):
        histogram = RoundsHistogram()
        for value in range(1, 80):
            histogram.observe(value)
        assert sum(histogram.counts) == histogram.total == 79


class TestMetricsAggregator:
    def feed(self, metrics):
        bus = EventBus()
        bus.attach(metrics)
        bus.emit(QueryIssued(query=Q), policy="gl")
        bus.emit(RecordsHarvested(query=Q, step=1, new_records=8, pages_fetched=2), policy="gl")
        bus.emit(RecordsHarvested(query=Q, step=2, new_records=2, pages_fetched=2), policy="gl")
        bus.emit(RetryAttempted(query=Q, attempt=1), policy="gl")
        bus.emit(QueryAborted(query=Q, pages_fetched=3), policy="gl")
        bus.emit(RecordsHarvested(query=Q, step=1, new_records=5, pages_fetched=1), policy="dm")

    def test_counters_and_rates(self):
        metrics = MetricsAggregator()
        self.feed(metrics)
        assert metrics.count("records-harvested") == 3
        assert metrics.count("records-harvested", "gl") == 2
        assert metrics.harvest_rate("gl") == pytest.approx(10 / 4)
        assert metrics.policies() == ["dm", "gl"]

    def test_summary_is_json_safe(self):
        metrics = MetricsAggregator()
        self.feed(metrics)
        summary = json.loads(json.dumps(metrics.summary()))
        gl = summary["policies"]["gl"]
        assert gl["queries"] == 2
        assert gl["pages"] == 4
        assert gl["new_records"] == 10
        assert gl["retries"] == 1
        assert gl["aborted"] == 1
        assert summary["events_total"] == 6


class TestCrashAfterSteps:
    def test_raises_on_nth_harvest(self):
        crash = CrashAfterSteps(2)
        crash.handle(RecordsHarvested(query=Q, step=1))
        crash.handle(QueryIssued(query=Q))  # non-harvest events don't count
        with pytest.raises(SimulatedCrash):
            crash.handle(RecordsHarvested(query=Q, step=2))

    def test_rejects_nonpositive_steps(self):
        with pytest.raises(ValueError):
            CrashAfterSteps(0)
