"""Post-crawl diagnostics.

Once a crawl finishes, the interesting questions are *where the rounds
went*: which attributes' queries paid off, how duplicate-heavy the tail
was, how productivity decayed.  These reports answer them from a
:class:`~repro.crawler.engine.CrawlResult` with kept outcomes, or from
the local database and ground truth for coverage breakdowns.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List

from repro.core.query import ConjunctiveQuery
from repro.core.table import RelationalTable
from repro.crawler.engine import CrawlResult
from repro.crawler.localdb import LocalDatabase
from repro.experiments.report import render_table
from repro.runtime.events import bucket_labels


@dataclass(frozen=True)
class AttributeProductivity:
    """One attribute's aggregate query economics."""

    attribute: str
    queries: int
    pages: int
    new_records: int

    @property
    def harvest_rate(self) -> float:
        return self.new_records / self.pages if self.pages else 0.0


def attribute_productivity(result: CrawlResult) -> List[AttributeProductivity]:
    """Per-attribute query economics (requires ``keep_outcomes=True``).

    Conjunctive queries are accounted under the joined attribute list
    ("make+model"); keyword queries under ``"*"``.
    """
    if not result.outcomes:
        raise ValueError(
            "no outcomes on the result — crawl with keep_outcomes=True"
        )
    tallies: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
    for outcome in result.outcomes:
        query = outcome.query
        if isinstance(query, ConjunctiveQuery):
            key = "+".join(query.attributes)
        elif query.is_keyword:
            key = "*"
        else:
            key = query.attribute or "*"
        tally = tallies[key]
        tally[0] += 1
        tally[1] += outcome.pages_fetched
        tally[2] += len(outcome.new_records)
    rows = [
        AttributeProductivity(attribute, queries, pages, new)
        for attribute, (queries, pages, new) in tallies.items()
    ]
    rows.sort(key=lambda row: -row.harvest_rate)
    return rows


def render_attribute_productivity(result: CrawlResult) -> str:
    rows = attribute_productivity(result)
    return render_table(
        ["attribute", "queries", "pages", "new records", "new/page"],
        [
            [r.attribute, r.queries, r.pages, r.new_records, round(r.harvest_rate, 2)]
            for r in rows
        ],
        title=f"Query productivity by attribute — {result.policy}",
    )


def productivity_decay(result: CrawlResult, buckets: int = 10) -> List[float]:
    """Mean realized harvest rate per crawl phase (first 10%, next 10%...).

    The numeric signature of the paper's "low marginal benefit"
    phenomenon: the head of the list is large, the tail near zero.
    """
    if not result.outcomes:
        raise ValueError(
            "no outcomes on the result — crawl with keep_outcomes=True"
        )
    outcomes = result.outcomes
    if buckets < 1:
        raise ValueError("need at least one bucket")
    per_bucket: List[float] = []
    n = len(outcomes)
    for bucket in range(buckets):
        start = bucket * n // buckets
        stop = (bucket + 1) * n // buckets
        chunk = outcomes[start:stop]
        if not chunk:
            continue
        pages = sum(o.pages_fetched for o in chunk)
        new = sum(len(o.new_records) for o in chunk)
        per_bucket.append(new / pages if pages else 0.0)
    return per_bucket


@dataclass(frozen=True)
class AttributeCoverage:
    """Share of one attribute's true value universe seen locally."""

    attribute: str
    values_seen: int
    values_total: int

    @property
    def fraction(self) -> float:
        return self.values_seen / self.values_total if self.values_total else 0.0


def value_coverage(
    local_db: LocalDatabase, truth: RelationalTable
) -> List[AttributeCoverage]:
    """Per-attribute distinct-value coverage against ground truth.

    Complements record coverage: a crawl may hold 80% of records yet
    have seen only half the sellers — which bounds what it can still
    query.
    """
    seen: Dict[str, int] = defaultdict(int)
    for value in local_db.distinct_values():
        seen[value.attribute] += 1
    totals: Dict[str, int] = defaultdict(int)
    for value in truth.distinct_values():
        totals[value.attribute] += 1
    return [
        AttributeCoverage(attribute, seen.get(attribute, 0), total)
        for attribute, total in sorted(totals.items())
    ]


def render_value_coverage(
    local_db: LocalDatabase, truth: RelationalTable
) -> str:
    rows = value_coverage(local_db, truth)
    return render_table(
        ["attribute", "values seen", "values total", "coverage"],
        [
            [r.attribute, r.values_seen, r.values_total, f"{r.fraction:.1%}"]
            for r in rows
        ],
        title="Distinct-value coverage by attribute",
    )


def render_speedup_table(events) -> str:
    """Render per-policy task timings and the realized fan-out speedup.

    ``events`` is any iterable of crawl events — typically a
    :class:`~repro.runtime.events.RingBufferSink`'s contents after an
    experiment ran through :func:`repro.parallel.run_crawl_grid`.  Only
    ``task-completed`` / ``suite-completed`` events are consumed; the
    speedup is the sequential-equivalent cost (sum of per-task crawl
    seconds) over the wall-clock the fan-out actually took.
    """
    from repro.runtime.events import (
        ExperimentSuiteCompleted,
        ExperimentTaskCompleted,
    )

    tasks = [e for e in events if isinstance(e, ExperimentTaskCompleted)]
    suites = [e for e in events if isinstance(e, ExperimentSuiteCompleted)]
    if not tasks:
        return "no task timings recorded"
    per_label: Dict[str, List[float]] = {}
    for event in tasks:
        per_label.setdefault(event.label, []).append(event.seconds)
    rows = [
        [label, len(seconds), f"{sum(seconds):.2f}s"]
        for label, seconds in per_label.items()
    ]
    text = render_table(
        ["policy", "tasks", "task time"],
        rows,
        title="Parallel experiment timing",
    )
    task_seconds = sum(event.seconds for event in tasks)
    wall_seconds = sum(event.wall_seconds for event in suites)
    if wall_seconds > 0:
        workers = max(event.workers for event in suites)
        speedup = task_seconds / wall_seconds
        text += (
            f"\ntask time {task_seconds:.2f}s in {wall_seconds:.2f}s wall "
            f"({workers} worker{'s' if workers != 1 else ''}) — "
            f"speedup x{speedup:.2f}"
        )
    return text


#: Roll-up columns after "policy", each the per-policy total of one
#: :class:`~repro.metrics.telemetry.TelemetrySink` counter.
_ROLLUP_COLUMNS = {
    "queries": "crawl_queries_completed_total",
    "pages": "crawl_pages_fetched_total",
    "new": "crawl_records_new_total",
    "aborted": "crawl_queries_aborted_total",
    "rejected": "crawl_queries_rejected_total",
    "failed": "crawl_queries_failed_total",
    "retries": "crawl_retries_total",
    "ckpts": "crawl_checkpoints_total",
}


def render_runtime_metrics(registry) -> str:
    """Render the per-policy crawl roll-up from a telemetry registry.

    ``registry`` is the :class:`~repro.metrics.registry.MetricsRegistry`
    a :class:`~repro.metrics.telemetry.TelemetrySink` fills.  One row
    per policy label: queries completed, pages paid for, new records,
    realized harvest rate, and the abort/reject/fail/retry/checkpoint
    counters — followed by each policy's per-query cost histogram
    (``crawl_pages_per_query``: pages per completed query).
    """
    totals: Dict[str, Dict[str, int]] = {}
    for column, name in _ROLLUP_COLUMNS.items():
        for key, value in registry.get(name).series():
            row = totals.setdefault(key[0], dict.fromkeys(_ROLLUP_COLUMNS, 0))
            row[column] += int(value)
    rows = []
    for policy, row in sorted(totals.items()):
        pages = row["pages"]
        harvest_rate = round(row["new"] / pages, 2) if pages else 0.0
        counts = list(row.values())
        rows.append([policy, *counts[:3], harvest_rate, *counts[3:]])
    headers = list(_ROLLUP_COLUMNS)
    parts = [
        render_table(
            ["policy", *headers[:3], "new/page", *headers[3:]],
            rows,
            title="Event-bus crawl metrics",
        )
    ]
    histogram = registry.get("crawl_pages_per_query")
    labels = bucket_labels(histogram.buckets)
    for (policy,), series in histogram.series():
        buckets = " ".join(
            f"{label}:{count}"
            for label, count in zip(labels, series.counts)
            if count
        )
        mean = series.sum / series.total
        parts.append(f"pages/query [{policy}]: mean {mean:.2f}  {buckets}")
    return "\n".join(parts)
