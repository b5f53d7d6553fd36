"""Durable crawl runtime: event bus, journaled checkpoints, resume.

The paper's setting is a budget-limited crawl measured in communication
rounds — exactly the regime where a long crawl that dies near the end
and restarts from zero is unaffordable.  This package makes any crawl
durable and observable:

- :mod:`repro.runtime.events` — a typed event stream (``QueryIssued``,
  ``PageFetched``, ``QueryAborted``/``Rejected``/``Failed``,
  ``RecordsHarvested``, ``RetryAttempted``, ``CheckpointWritten``,
  ``CrawlStopped``) with pluggable sinks: an in-memory ring buffer and
  a metrics aggregator.
- :mod:`repro.runtime.serialize` — JSON codecs for the crawl's value
  types (attribute values, queries, records, RNG streams).
- :mod:`repro.runtime.journal` — the write-ahead outcome journal: one
  JSONL line per completed query, enough to rebuild crawl state without
  re-contacting the source.
- :mod:`repro.runtime.checkpoint` — full-state ``CrawlCheckpoint``
  construction and restoration on top of every policy's
  ``state_dict()/load_state()``.
- :mod:`repro.runtime.crawler` — :class:`RuntimeCrawler`, which runs
  the engine's stopping loop and, from its per-step hook, journals
  every step and checkpoints every N steps; and
  :meth:`RuntimeCrawler.resume` a killed crawl to a bit-identical
  :class:`~repro.crawler.engine.CrawlResult`.

Submodules are imported lazily (PEP 562) so low-level modules — the
engine, the prober, the flaky server — can import
``repro.runtime.events`` without creating an import cycle through
:mod:`repro.runtime.crawler`.
"""

from __future__ import annotations

_EXPORTS = {
    # events
    "CrawlEvent": "repro.runtime.events",
    "QueryIssued": "repro.runtime.events",
    "PageFetched": "repro.runtime.events",
    "QueryAborted": "repro.runtime.events",
    "QueryRejected": "repro.runtime.events",
    "QueryFailed": "repro.runtime.events",
    "RecordsHarvested": "repro.runtime.events",
    "RetryAttempted": "repro.runtime.events",
    "ExperimentTaskCompleted": "repro.runtime.events",
    "ExperimentSuiteCompleted": "repro.runtime.events",
    "CheckpointWritten": "repro.runtime.events",
    "CrawlStopped": "repro.runtime.events",
    "EventBus": "repro.runtime.events",
    "EventSink": "repro.runtime.events",
    "RingBufferSink": "repro.runtime.events",
    "MetricsAggregator": "repro.runtime.events",
    "RoundsHistogram": "repro.runtime.events",
    "CrashAfterSteps": "repro.runtime.events",
    "SimulatedCrash": "repro.runtime.events",
    # journal
    "JournalEntry": "repro.runtime.journal",
    "OutcomeJournal": "repro.runtime.journal",
    "read_journal": "repro.runtime.journal",
    "encode_outcome": "repro.runtime.journal",
    "decode_outcome": "repro.runtime.journal",
    # checkpoint
    "CheckpointError": "repro.runtime.checkpoint",
    "CrawlCheckpoint": "repro.runtime.checkpoint",
    "FleetCheckpoint": "repro.runtime.checkpoint",
    # crawler
    "RuntimeCrawler": "repro.runtime.crawler",
    "rebuild_engine_state": "repro.runtime.crawler",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.runtime' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return __all__
