"""The bus-to-registry bridge: crawl events in, telemetry out.

:class:`TelemetrySink` is an :class:`~repro.runtime.events.EventSink`
that subscribes to the crawl's event bus and maintains a
:class:`~repro.metrics.registry.MetricsRegistry` — the live view of
everything the paper measures after the fact:

- **cost** — queries issued/completed/rejected/failed, pages fetched
  (communication rounds paid), retry attempts and charged backoff
  rounds, rounds saved by query abortion;
- **yield** — new records vs duplicates, cumulative harvest rate
  ``HR`` (new records per page), a rolling harvest rate over the last
  ``rolling_window`` queries (the live signal for the paper's
  "low marginal benefit" regime), and live coverage when the true
  source size is known (controlled experiments report it);
- **latency** — wall-clock seconds per crawl step and a pages-per-query
  histogram.

Metric updates are observational: the sink never touches crawl state
or RNG streams, so an instrumented crawl remains bit-identical to a
bare one.  Wall-clock metrics are inherently machine-dependent; all
event-derived counters are deterministic for a given crawl, which is
what makes per-worker registries mergeable into the same totals the
sequential run would report.

The server's result-ordering cache is not on the bus (cache activity
is server-side, not wire traffic), so :meth:`TelemetrySink.sample_server`
pulls those gauges — cache hits, cache misses and the round counter —
from a server's communication log; the runtime calls it at
checkpoints, heartbeats, and crawl stop.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Deque, Optional, Tuple

from repro.metrics.registry import MetricsRegistry
from repro.runtime.events import (
    CheckpointWritten,
    CrawlEvent,
    CrawlStopped,
    EventSink,
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

#: Buckets for pages-per-query (page counts, not seconds).
PAGE_BUCKETS = (1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0, 55.0)

#: Buckets for per-step wall time in seconds.
STEP_SECONDS_BUCKETS = (
    0.0001,
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
)


def _policy_label(event: CrawlEvent) -> str:
    return event.policy or "?"


class TelemetrySink(EventSink):
    """Feed a metrics registry from the crawl event bus.

    Parameters
    ----------
    registry:
        The registry to populate (a fresh one by default).  Sharing one
        registry across sinks is fine — metric handles are get-or-create.
    truth_size:
        True source size, when known (controlled experiments); enables
        the ``crawl_coverage`` gauge.
    rolling_window:
        Number of trailing completed queries the rolling harvest rate
        averages over.
    track_wall_time:
        Record per-step wall-clock seconds (on by default; disable for
        byte-stable registry snapshots across machines).
    clock:
        Injectable monotonic clock, for tests.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        truth_size: Optional[int] = None,
        rolling_window: int = 50,
        track_wall_time: bool = True,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if rolling_window < 1:
            raise ValueError(f"rolling_window must be >= 1, got {rolling_window}")
        self.registry = registry if registry is not None else MetricsRegistry()
        self.truth_size = truth_size
        self.rolling_window = rolling_window
        self.track_wall_time = track_wall_time
        self._clock = clock
        self._last_step_at: Optional[float] = None
        #: (new_records, pages) of the trailing completed queries, with
        #: running totals so each step avoids re-summing the window.
        self._window: Deque[Tuple[int, int]] = deque(maxlen=rolling_window)
        self._window_new = 0
        self._window_pages = 0

        declare = self.registry
        self.queries_issued = declare.counter(
            "crawl_queries_issued_total",
            "Queries put on the wire (first page about to be paid)",
            labels=("policy",),
        )
        self.queries_completed = declare.counter(
            "crawl_queries_completed_total",
            "Query-harvest-decompose steps completed",
            labels=("policy",),
        )
        self.queries_rejected = declare.counter(
            "crawl_queries_rejected_total",
            "Queries the interface refused (no round charged)",
            labels=("policy",),
        )
        self.queries_aborted = declare.counter(
            "crawl_queries_aborted_total",
            "Queries cut short by the abortion policy",
            labels=("policy",),
        )
        self.queries_failed = declare.counter(
            "crawl_queries_failed_total",
            "Queries that exhausted their retry budget",
            labels=("policy",),
        )
        self.pages_fetched = declare.counter(
            "crawl_pages_fetched_total",
            "Result pages fetched (communication rounds paid for data)",
            labels=("policy",),
        )
        self.records_new = declare.counter(
            "crawl_records_new_total",
            "Records harvested into DB_local for the first time",
            labels=("policy",),
        )
        self.records_duplicate = declare.counter(
            "crawl_records_duplicate_total",
            "Returned records already present in DB_local",
            labels=("policy",),
        )
        self.retries = declare.counter(
            "crawl_retries_total",
            "Transient failures absorbed by the retry loop",
            labels=("policy",),
        )
        self.backoff_rounds = declare.counter(
            "crawl_backoff_rounds_total",
            "Communication rounds charged while backing off",
            labels=("policy",),
        )
        self.rounds_saved = declare.counter(
            "crawl_rounds_saved_total",
            "Accessible pages the abortion policy declined to pay",
            labels=("policy",),
        )
        self.checkpoints = declare.counter(
            "crawl_checkpoints_total",
            "Durable checkpoints written",
            labels=("policy", "snapshot"),
        )
        self.records_gauge = declare.gauge(
            "crawl_records", "Distinct records in DB_local"
        )
        self.rounds_gauge = declare.gauge(
            "crawl_rounds", "Communication rounds consumed"
        )
        self.steps_gauge = declare.gauge(
            "crawl_steps", "Completed crawl steps"
        )
        self.coverage = declare.gauge(
            "crawl_coverage", "Live fraction of the true source harvested"
        )
        self.harvest_rate = declare.gauge(
            "crawl_harvest_rate",
            "Cumulative new records per page fetched",
            labels=("policy",),
        )
        self.harvest_rate_rolling = declare.gauge(
            "crawl_harvest_rate_rolling",
            "New records per page over the trailing query window",
            labels=("policy",),
        )
        self.elapsed_gauge = declare.gauge(
            "crawl_elapsed_seconds",
            "Cumulative crawl wall-clock seconds (carries across resume)",
        )
        self.cache_hits = declare.gauge(
            "crawl_order_cache_hits", "Server result-ordering LRU cache hits"
        )
        self.cache_misses = declare.gauge(
            "crawl_order_cache_misses", "Server result-ordering LRU cache misses"
        )
        self.pages_per_query = declare.histogram(
            "crawl_pages_per_query",
            "Pages paid per completed query",
            labels=("policy",),
            buckets=PAGE_BUCKETS,
        )
        self.step_seconds = declare.histogram(
            "crawl_step_seconds",
            "Wall-clock seconds per completed crawl step",
            labels=("policy",),
            buckets=STEP_SECONDS_BUCKETS,
        )
        self.stops = declare.counter(
            "crawl_stopped_total",
            "Crawl loop exits, by stopping criterion",
            labels=("policy", "stopped_by"),
        )
        self.frontier_rescored = declare.counter(
            "frontier_rescored_total",
            "Frontier entries rescored by incremental dirty-set flushes",
            labels=("policy",),
        )
        self.frontier_dirty = declare.counter(
            "frontier_dirty_total",
            "Frontier entries marked dirty by query decompositions",
            labels=("policy",),
        )
        self.frontier_pending = declare.gauge(
            "frontier_pending", "Candidate values awaiting issuance"
        )
        self.task_seconds = declare.counter(
            "experiment_task_seconds_total",
            "Summed per-task crawl seconds of experiment grids",
            labels=("label",),
        )
        self.tasks_completed = declare.counter(
            "experiment_tasks_total",
            "Experiment grid tasks completed",
            labels=("label",),
        )
        self.suite_wall_seconds = declare.counter(
            "experiment_suite_wall_seconds_total",
            "Wall-clock seconds of completed experiment suites",
        )

    # ------------------------------------------------------------------
    # The hot path uses the registry's ``*_key`` fast paths: a crawl
    # emits several events per step, and the label tuple is always the
    # same single-policy key, so validation is done once here instead of
    # per increment.
    def handle(self, event: CrawlEvent) -> None:
        policy = _policy_label(event)
        key = (policy,)
        if isinstance(event, PageFetched):
            self.pages_fetched.inc_key(key)
            self.records_new.inc_key(key, event.new_records)
            self.records_duplicate.inc_key(
                key, max(event.records - event.new_records, 0)
            )
        elif isinstance(event, RecordsHarvested):
            self._on_step(event, key)
            if self.track_wall_time:
                now = self._clock()
                if self._last_step_at is not None:
                    self.step_seconds.observe_key(key, now - self._last_step_at)
                self._last_step_at = now
        elif isinstance(event, QueryIssued):
            self.queries_issued.inc_key(key)
        elif isinstance(event, QueryRejected):
            self.queries_rejected.inc_key(key)
        elif isinstance(event, QueryAborted):
            self.queries_aborted.inc_key(key)
            self.rounds_saved.inc_key(key, event.pages_saved)
        elif isinstance(event, QueryFailed):
            self.queries_failed.inc_key(key)
        elif isinstance(event, RetryAttempted):
            self.retries.inc_key(key)
            self.backoff_rounds.inc_key(key, event.backoff_rounds)
        elif isinstance(event, CheckpointWritten):
            self.checkpoints.inc(
                policy=policy, snapshot="full" if event.snapshot else "marker"
            )
        elif isinstance(event, CrawlStopped):
            self.stops.inc(policy=policy, stopped_by=event.stopped_by)
            self.records_gauge.set(event.records)
            self.rounds_gauge.set(event.rounds)
        elif isinstance(event, ExperimentTaskCompleted):
            self.tasks_completed.inc(label=event.label or "?")
            self.task_seconds.inc(event.seconds, label=event.label or "?")
        elif isinstance(event, ExperimentSuiteCompleted):
            self.suite_wall_seconds.inc(event.wall_seconds)

    def _on_step(self, event: RecordsHarvested, key: Tuple[str, ...]) -> None:
        self.queries_completed.inc_key(key)
        self.steps_gauge.set_key((), event.step)
        self.records_gauge.set_key((), event.records_total)
        self.rounds_gauge.set_key((), event.rounds)
        if self.truth_size:
            self.coverage.set_key((), event.records_total / self.truth_size)
        self.pages_per_query.observe_key(key, event.pages_fetched)
        window = self._window
        if len(window) == window.maxlen:
            evicted_new, evicted_pages = window[0]
            self._window_new -= evicted_new
            self._window_pages -= evicted_pages
        window.append((event.new_records, event.pages_fetched))
        self._window_new += event.new_records
        self._window_pages += event.pages_fetched
        pages = self.pages_fetched.value_key(key)
        if pages:
            self.harvest_rate.set_key(
                key, self.records_new.value_key(key) / pages
            )
        if self._window_pages:
            self.harvest_rate_rolling.set_key(
                key, self._window_new / self._window_pages
            )

    def count_replayed(
        self,
        outcome,
        step: int,
        rounds: int,
        records_total: int,
        policy: Optional[str] = None,
    ) -> None:
        """Count one journal-replayed step the way its live events were.

        Replay emits no events, so
        :meth:`repro.runtime.crawler.RuntimeCrawler.resume` hands each
        replayed :class:`~repro.crawler.prober.QueryOutcome` here.
        Retries, backoff rounds, rejected queries and rounds saved are
        not journaled; they continue from the checkpoint's snapshot.
        """
        key = (policy or "?",)
        new = len(outcome.new_records)
        self.queries_issued.inc_key(key)
        self.pages_fetched.inc_key(key, outcome.pages_fetched)
        self.records_new.inc_key(key, new)
        self.records_duplicate.inc_key(key, outcome.records_returned - new)
        if outcome.aborted:
            self.queries_aborted.inc_key(key)
        if outcome.failed:
            self.queries_failed.inc_key(key)
        self._on_step(
            RecordsHarvested(
                query=outcome.query,
                step=step,
                new_records=new,
                pages_fetched=outcome.pages_fetched,
                records_total=records_total,
                rounds=rounds,
            ),
            key,
        )

    # ------------------------------------------------------------------
    def sample_server(self, server) -> None:
        """Pull server-side gauges (cache economics, round counter).

        ``server`` is anything exposing a ``log`` with ``cache_hits`` /
        ``cache_misses`` and a ``rounds`` property —
        :class:`~repro.server.webdb.SimulatedWebDatabase` or a wrapper.
        No hit ratio is stored beside the two counts: readers divide
        (as ``repro top`` does), so the ratio cannot go stale.
        """
        log = getattr(server, "log", None)
        if log is None:
            return
        self.cache_hits.set(getattr(log, "cache_hits", 0))
        self.cache_misses.set(getattr(log, "cache_misses", 0))
        self.rounds_gauge.set(server.rounds)

    def sample_selector(self, selector, policy: Optional[str] = None) -> None:
        """Pull selector-side frontier counters (incremental rescoring).

        ``selector`` is anything exposing
        :meth:`~repro.policies.base.QuerySelector.frontier_stats`; the
        call is a no-op for selectors without an incremental frontier.
        The stats are lifetime totals for one selector, and a selector
        serves exactly one crawl, so folding them in once at crawl end
        (next to :meth:`sample_server`) keeps the counters cumulative
        and mergeable across grid workers.
        """
        stats_fn = getattr(selector, "frontier_stats", None)
        stats = stats_fn() if callable(stats_fn) else None
        if not stats:
            return
        key = (policy or getattr(selector, "name", None) or "?",)
        self.frontier_rescored.inc_key(key, stats.get("rescored_total", 0))
        self.frontier_dirty.inc_key(key, stats.get("dirty_total", 0))
        self.frontier_pending.set_key((), stats.get("pending", 0))
