"""The crawl event bus — a typed stream of everything a crawl does.

The engine, the prober, the retrying transport, the schedulers, and the
durable runtime all emit small typed events onto an :class:`EventBus`;
sinks subscribe to consume them.  Each fact has one record: the
:class:`~repro.metrics.telemetry.TelemetrySink` registry counts events,
and per-request detail is kept only in the span trace that
:class:`repro.trace.TraceSink` writes.  Two sinks ship with the runtime:

- :class:`RingBufferSink` — the last N events in memory, for
  interactive inspection and tests;
- :class:`MetricsAggregator` — per-policy counters plus
  latency-in-rounds histograms, attached only by perfbench's
  crawl-local workload; the roll-up
  :func:`repro.analysis.reports.render_runtime_metrics` reads the
  :class:`~repro.metrics.telemetry.TelemetrySink` registry.

Events are observational: emitting them never touches crawl state or
RNG streams, so an instrumented crawl is bit-identical to a bare one.
Emission is guarded by :attr:`EventBus.has_sinks` at the hot call
sites, so a bus nobody listens to costs one attribute check per event.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.core.errors import ReproError
from repro.core.query import AnyQuery


@dataclass
class CrawlEvent:
    """Base event.  ``policy`` and ``source`` are stamped by the emitter."""

    #: Short event-kind tag, stable across versions.
    kind = "event"

    policy: Optional[str] = field(default=None, kw_only=True)
    source: Optional[str] = field(default=None, kw_only=True)


@dataclass
class QueryIssued(CrawlEvent):
    """The prober put a query on the wire (first page about to be paid)."""

    kind = "query-issued"
    query: AnyQuery = None  # type: ignore[assignment]


@dataclass
class PageFetched(CrawlEvent):
    """One result page arrived and was extracted."""

    kind = "page-fetched"
    query: AnyQuery = None  # type: ignore[assignment]
    page_number: int = 0
    records: int = 0
    new_records: int = 0


@dataclass
class QueryRejected(CrawlEvent):
    """The interface refused the query (no round charged)."""

    kind = "query-rejected"
    query: AnyQuery = None  # type: ignore[assignment]


@dataclass
class QueryAborted(CrawlEvent):
    """The abortion policy stopped paying for the query's remaining pages.

    ``pages_saved`` is the number of accessible pages the query still
    had — communication rounds the abort declined to pay.
    """

    kind = "query-aborted"
    query: AnyQuery = None  # type: ignore[assignment]
    pages_fetched: int = 0
    pages_saved: int = 0


@dataclass
class QueryFailed(CrawlEvent):
    """Retries exhausted mid-query; pages fetched so far were harvested."""

    kind = "query-failed"
    query: AnyQuery = None  # type: ignore[assignment]
    pages_fetched: int = 0


@dataclass
class RetryAttempted(CrawlEvent):
    """One transient failure absorbed; the request will be retried."""

    kind = "retry-attempted"
    query: AnyQuery = None  # type: ignore[assignment]
    page_number: int = 0
    attempt: int = 0
    backoff_delay: float = 0.0
    backoff_rounds: int = 0


@dataclass
class RecordsHarvested(CrawlEvent):
    """One query-harvest-decompose step completed."""

    kind = "records-harvested"
    query: AnyQuery = None  # type: ignore[assignment]
    step: int = 0
    new_records: int = 0
    pages_fetched: int = 0
    records_total: int = 0
    rounds: int = 0


@dataclass
class CheckpointWritten(CrawlEvent):
    """A durable checkpoint reached disk.

    ``snapshot`` distinguishes a full-state snapshot
    (``checkpoint.json``) from a light checkpoint marker (journal
    group-commit + ``progress.json``).
    """

    kind = "checkpoint-written"
    step: int = 0
    rounds: int = 0
    path: str = ""
    snapshot: bool = True


@dataclass
class ExperimentTaskCompleted(CrawlEvent):
    """One (policy × seed-set) crawl of an experiment grid finished.

    Emitted by :func:`repro.parallel.run_crawl_grid` as results merge
    back in fixed task order; ``seconds`` is the task's own wall-clock
    crawl time inside its worker.
    """

    kind = "task-completed"
    label: str = ""
    seed_index: int = 0
    seconds: float = 0.0
    rounds: int = 0
    records: int = 0


@dataclass
class ExperimentSuiteCompleted(CrawlEvent):
    """A whole experiment grid finished.

    ``task_seconds`` is the sum of per-task crawl times (what a
    sequential run would have cost); ``wall_seconds`` is what the
    fan-out actually took, so ``task_seconds / wall_seconds`` is the
    realized speedup.
    """

    kind = "suite-completed"
    tasks: int = 0
    workers: int = 0
    wall_seconds: float = 0.0
    task_seconds: float = 0.0


@dataclass
class StepStarted(CrawlEvent):
    """A query–harvest–decompose step is beginning.

    Emitted by the engine only when a tracer is listening
    (:attr:`EventBus.has_tracers`); ``step`` is the 1-based number the
    step will carry in its :class:`RecordsHarvested` event.
    """

    kind = "step-started"
    step: int = 0


@dataclass
class PhaseCompleted(CrawlEvent):
    """One timed crawl phase finished (tracing instrumentation).

    Emitted by the engine (``select``, ``extract``, ``decompose``), and
    by selectors via their trace emitter (``score`` during MMMI/DM
    scoring, ``frontier-refresh`` during decomposition) — only when a
    tracer is attached.  ``detail`` carries deterministic counts;
    ``seconds``/``cpu_seconds`` are wall/CPU durations and are kept out
    of any canonical (byte-comparable) trace payload by the trace
    sink.
    """

    kind = "phase-completed"
    step: int = 0
    phase: str = ""
    seconds: float = 0.0
    cpu_seconds: float = 0.0
    detail: dict = field(default_factory=dict)


@dataclass
class CrawlStopped(CrawlEvent):
    """The crawl loop exited."""

    kind = "crawl-stopped"
    stopped_by: str = ""
    rounds: int = 0
    queries: int = 0
    records: int = 0


# ----------------------------------------------------------------------
# Bus and sinks
# ----------------------------------------------------------------------
class EventSink:
    """Anything that consumes crawl events."""

    #: Set by tracing sinks (:class:`repro.trace.TraceSink`).  While at
    #: least one attached sink wants phases, the engine, prober, and
    #: selectors emit the extra :class:`StepStarted` /
    #: :class:`PhaseCompleted` instrumentation events (and pay for the
    #: clock reads they carry); with none attached that work is skipped
    #: entirely.
    wants_phases = False

    def handle(self, event: CrawlEvent) -> None:  # pragma: no cover - protocol
        raise NotImplementedError

    def close(self) -> None:
        """Release resources (default: nothing to release)."""


class EventBus:
    """Synchronous fan-out of events to attached sinks.

    Sink exceptions propagate to the emitter on purpose: the fault
    injection used by the crash/resume tests *is* a sink that raises.
    """

    def __init__(self) -> None:
        self._sinks: List[EventSink] = []
        self._tracers = 0

    @property
    def has_sinks(self) -> bool:
        return bool(self._sinks)

    @property
    def has_tracers(self) -> bool:
        """At least one attached sink wants phase instrumentation."""
        return self._tracers > 0

    def attach(self, sink: EventSink) -> EventSink:
        self._sinks.append(sink)
        if sink.wants_phases:
            self._tracers += 1
        return sink

    def __contains__(self, sink: object) -> bool:
        return sink in self._sinks

    def detach(self, sink: EventSink) -> None:
        self._sinks.remove(sink)
        if sink.wants_phases:
            self._tracers -= 1

    def emit(
        self,
        event: CrawlEvent,
        policy: Optional[str] = None,
        source: Optional[str] = None,
    ) -> None:
        if not self._sinks:
            return
        if policy is not None and event.policy is None:
            event.policy = policy
        if source is not None and event.source is None:
            event.source = source
        for sink in self._sinks:
            sink.handle(event)

    def close(self) -> None:
        for sink in self._sinks:
            sink.close()


class RingBufferSink(EventSink):
    """Keep the last ``capacity`` events in memory.

    Once the buffer is full every new event silently evicts the oldest;
    :attr:`dropped` counts those evictions so consumers can tell a
    complete event history from a truncated one.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._buffer: Deque[CrawlEvent] = deque(maxlen=capacity)
        #: Events evicted because the buffer was at capacity.
        self.dropped = 0

    def handle(self, event: CrawlEvent) -> None:
        if len(self._buffer) == self.capacity:
            self.dropped += 1
        self._buffer.append(event)

    @property
    def events(self) -> List[CrawlEvent]:
        return list(self._buffer)

    def of_kind(self, kind: str) -> List[CrawlEvent]:
        return [event for event in self._buffer if event.kind == kind]

    def __len__(self) -> int:
        return len(self._buffer)


def bucket_labels(bounds) -> List[str]:
    """``1``, ``2``, ``4-5``, ... ``>55`` for inclusive integer upper bounds."""
    labels = []
    lower = 1
    for bound in map(int, bounds):
        labels.append(f"{lower}" if lower == bound else f"{lower}-{bound}")
        lower = bound + 1
    labels.append(f">{lower - 1}")
    return labels


class RoundsHistogram:
    """A small fixed-bucket histogram of per-query cost in rounds."""

    #: Upper bounds (inclusive) of each bucket; the last bucket is open.
    DEFAULT_BOUNDS = (1, 2, 3, 5, 8, 13, 21, 34, 55)

    def __init__(self, bounds=DEFAULT_BOUNDS) -> None:
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum_rounds = 0

    def observe(self, rounds: int) -> None:
        # First bucket whose inclusive upper bound admits `rounds`;
        # everything past the last bound lands in the open tail bucket.
        index = bisect_right(self.bounds, rounds - 1)
        self.counts[index] += 1
        self.total += 1
        self.sum_rounds += rounds

    @property
    def mean(self) -> float:
        return self.sum_rounds / self.total if self.total else 0.0

    def labelled_buckets(self) -> List[tuple]:
        """``[(label, count), ...]`` for rendering."""
        return list(zip(bucket_labels(self.bounds), self.counts))

    def as_dict(self) -> Dict[str, int]:
        return {label: count for label, count in self.labelled_buckets()}


class MetricsAggregator(EventSink):
    """Per-policy counters plus latency-in-rounds histograms.

    ``counters`` is keyed ``(policy, event_kind)``; the special policy
    key ``None`` appears when the emitter did not stamp one.  The
    histogram observes each completed query's page cost from
    :class:`RecordsHarvested` events.
    """

    def __init__(self) -> None:
        self.counters: Dict[tuple, int] = {}
        self.histograms: Dict[Optional[str], RoundsHistogram] = {}
        self.new_records: Dict[Optional[str], int] = {}
        self.pages: Dict[Optional[str], int] = {}

    def handle(self, event: CrawlEvent) -> None:
        key = (event.policy, event.kind)
        self.counters[key] = self.counters.get(key, 0) + 1
        if isinstance(event, RecordsHarvested):
            histogram = self.histograms.get(event.policy)
            if histogram is None:
                histogram = self.histograms[event.policy] = RoundsHistogram()
            histogram.observe(event.pages_fetched)
            self.new_records[event.policy] = (
                self.new_records.get(event.policy, 0) + event.new_records
            )
            self.pages[event.policy] = (
                self.pages.get(event.policy, 0) + event.pages_fetched
            )

    # ------------------------------------------------------------------
    def count(self, kind: str, policy: Optional[str] = None) -> int:
        """Total events of ``kind`` (for ``policy``, or summed over all)."""
        if policy is not None:
            return self.counters.get((policy, kind), 0)
        return sum(
            count for (_, k), count in self.counters.items() if k == kind
        )

    def policies(self) -> List[Optional[str]]:
        seen = {policy for (policy, _) in self.counters}
        return sorted(seen, key=lambda p: (p is None, p or ""))

    def harvest_rate(self, policy: Optional[str]) -> float:
        pages = self.pages.get(policy, 0)
        return self.new_records.get(policy, 0) / pages if pages else 0.0

    def summary(self) -> dict:
        """JSON-safe roll-up of everything observed."""
        return {
            "policies": {
                (policy or "?"): {
                    "queries": self.count(RecordsHarvested.kind, policy),
                    "pages": self.pages.get(policy, 0),
                    "new_records": self.new_records.get(policy, 0),
                    "harvest_rate": round(self.harvest_rate(policy), 4),
                    "aborted": self.count(QueryAborted.kind, policy),
                    "rejected": self.count(QueryRejected.kind, policy),
                    "failed": self.count(QueryFailed.kind, policy),
                    "retries": self.count(RetryAttempted.kind, policy),
                    "checkpoints": self.count(CheckpointWritten.kind, policy),
                    "rounds_histogram": (
                        self.histograms[policy].as_dict()
                        if policy in self.histograms
                        else {}
                    ),
                }
                for policy in self.policies()
            },
            "events_total": sum(self.counters.values()),
        }


# ----------------------------------------------------------------------
# Fault injection (crash/resume tests and the resumable-crawl example)
# ----------------------------------------------------------------------
class SimulatedCrash(ReproError):
    """Raised by :class:`CrashAfterSteps` to kill a crawl mid-run."""


class CrashAfterSteps(EventSink):
    """Kill the process-under-test after N completed steps.

    The crash fires from inside the engine's step — after the server
    mutated and records were harvested, but *before* the runtime
    journaled the step — which is the worst-case point for recovery.
    """

    def __init__(self, steps: int) -> None:
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        self.steps = steps
        self.seen = 0

    def handle(self, event: CrawlEvent) -> None:
        if isinstance(event, RecordsHarvested):
            self.seen += 1
            if self.seen >= self.steps:
                raise SimulatedCrash(f"simulated crash after step {self.seen}")
