"""Live crawl telemetry: a metrics registry fed by the event bus.

The paper's argument is quantitative — harvest rate ``HR(q)``,
coverage-versus-cost curves, the >85%-coverage "low marginal benefit"
regime — yet those numbers classically appear only *after* a crawl
finishes.  This package makes them live:

- :mod:`repro.metrics.registry` — :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` families with labels, owned by a
  :class:`MetricsRegistry` that snapshots (for checkpoints), restores,
  and merges (for the parallel runner) deterministically;
- :mod:`repro.metrics.telemetry` — :class:`TelemetrySink`, the bus
  subscriber that translates :mod:`repro.runtime.events` into
  telemetry: queries, pages, new-vs-duplicate records, retries and
  charged backoff rounds, rounds saved by abortion, live coverage,
  rolling harvest rate, cache hits and misses, per-step wall time;
- :mod:`repro.metrics.exporters` — Prometheus text format, an
  append-only JSONL snapshot stream (plus its schema validator), and
  the end-of-run summary table;
- :mod:`repro.metrics.progress` — :class:`ProgressReporter`, a
  heartbeat line every N steps with optional JSONL snapshotting.

The sinks attach to the same :class:`~repro.runtime.events.EventBus`
every crawl already carries, so instrumentation is opt-in and a crawl
with no sinks pays one attribute check per event.  The
:class:`~repro.runtime.crawler.RuntimeCrawler` embeds registry
snapshots in checkpoints so resumed crawls report continuous totals,
and :func:`repro.parallel.run_crawl_grid` merges per-worker registries
in fixed task order.
"""

from repro.metrics.exporters import (
    JSONL_SCHEMA,
    JsonlMetricsWriter,
    prometheus_text,
    registry_samples,
    render_metrics_summary,
    validate_metrics_jsonl,
)
from repro.metrics.progress import ProgressReporter
from repro.metrics.quantiles import nearest_rank, percentiles
from repro.metrics.registry import (
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricError,
    MetricsRegistry,
)
from repro.metrics.telemetry import TelemetrySink

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JSONL_SCHEMA",
    "JsonlMetricsWriter",
    "Metric",
    "MetricError",
    "MetricsRegistry",
    "ProgressReporter",
    "TelemetrySink",
    "nearest_rank",
    "percentiles",
    "prometheus_text",
    "registry_samples",
    "render_metrics_summary",
    "validate_metrics_jsonl",
]
