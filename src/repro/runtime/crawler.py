"""The durable crawl loop: journal every step, commit every N steps.

:class:`RuntimeCrawler` drives a :class:`~repro.crawler.engine.CrawlerEngine`
through the engine's own stopping loop
(:meth:`~repro.crawler.engine.CrawlerEngine.step_until`) and adds
durability, the per-step part from that loop's ``on_step`` hook:

- a **write-ahead journal** entry after *every* completed step;
- a **checkpoint marker** every ``checkpoint_every`` completed steps:
  the journal is group-commit flushed and a small ``progress.json``
  manifest records the durable horizon — O(1) work, so checkpointing
  every 100 steps costs a few percent, not a second snapshot of the
  crawl;
- a **full-state snapshot** (``checkpoint.json``: engine + selector +
  server state) at baseline, on graceful suspension, and optionally
  every ``snapshot_every`` steps when bounded replay time matters more
  than hot-loop cost;
- :meth:`RuntimeCrawler.resume` — rebuild the crawl from
  ``checkpoint.json`` + ``journal.jsonl`` and continue to a
  bit-identical :class:`~repro.crawler.engine.CrawlResult` on fixed
  seeds.

Recovery replays journaled steps through the *selector itself*
(:meth:`~repro.crawler.engine.CrawlerEngine.replay_outcome`): the
policy re-proposes exactly the queries the live crawl issued, consuming
identical RNG draws, and each journaled outcome is folded in without
contacting the server.  After replay the server's runtime state and the
retry-jitter RNG are fast-forwarded from the last journal entry.  Steps
lost past the journal's durable horizon are not lost at all: resume
re-executes them live, which on fixed seeds reproduces them bit for
bit.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional, Union

from repro.core.errors import CrawlError
from repro.crawler.abortion import AbortionPolicy
from repro.crawler.engine import CrawlerEngine, CrawlResult, Seed
from repro.crawler.prober import QueryOutcome
from repro.policies.base import QuerySelector
from repro.runtime.checkpoint import CheckpointError, CrawlCheckpoint
from repro.runtime.events import CheckpointWritten, EventBus
from repro.runtime.journal import OutcomeJournal, read_journal
from repro.runtime.serialize import restore_rng
from repro.server.flaky import ExponentialBackoff

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.metrics.telemetry import TelemetrySink
    from repro.trace.sink import TraceSink

PathLike = Union[str, Path]

CHECKPOINT_FILE = "checkpoint.json"
JOURNAL_FILE = "journal.jsonl"
PROGRESS_FILE = "progress.json"

#: Keys :meth:`RuntimeCrawler.crawl` accepts as stopping limits.
_LIMIT_KEYS = ("max_rounds", "max_queries", "target_coverage")


def rebuild_engine_state(checkpoint_dir: PathLike) -> dict:
    """What the journal alone proves about the crawl at crash time.

    Reads ``checkpoint.json`` + ``journal.jsonl`` and — without
    constructing a server or selector — reports the crawl position the
    files encode: completed steps, rounds, and the distinct-record count
    (checkpointed records plus journaled new records).  Used by
    diagnostics and the journal-replay verification tests.
    """
    directory = Path(checkpoint_dir)
    checkpoint = CrawlCheckpoint.load(directory / CHECKPOINT_FILE)
    entries = read_journal(directory / JOURNAL_FILE, after_step=checkpoint.step)
    record_ids = {payload["id"] for payload in checkpoint.engine["records"]}
    for entry in entries:
        record_ids.update(r.record_id for r in entry.outcome.new_records)
    last = entries[-1] if entries else None
    state = {
        "checkpoint_step": checkpoint.step,
        "step": last.step if last else checkpoint.step,
        "rounds": last.rounds if last else checkpoint.server.get("rounds", 0),
        "records": len(record_ids),
        "journal_entries": len(entries),
    }
    progress_path = directory / PROGRESS_FILE
    if progress_path.exists():
        progress = json.loads(progress_path.read_text(encoding="utf-8"))
        state["committed_step"] = progress["step"]
    return state


class RuntimeCrawler:
    """Durable wrapper around one single-use engine.

    Parameters
    ----------
    engine:
        A fresh (or checkpoint-restored) engine; the runtime runs its
        :meth:`~repro.crawler.engine.CrawlerEngine.step_until` loop.
    checkpoint_dir:
        Directory for ``checkpoint.json`` and ``journal.jsonl``; with
        ``None`` the runtime is the engine's plain crawl loop (no
        journal, no checkpoints, no per-step trace flush).
    checkpoint_every:
        Completed steps between checkpoint markers (journal
        group-commit + ``progress.json`` manifest — O(1) work, no state
        snapshot); ``0`` disables periodic markers (baseline and
        suspension checkpoints are still written).
    snapshot_every:
        Completed steps between periodic *full-state* snapshots
        (``checkpoint.json``); ``0`` (the default) writes them only at
        baseline and suspension.  A snapshot costs O(crawl state), so
        this is a recovery-replay-time bound to opt into, not a
        default.
    setup:
        Opaque recipe stored inside every checkpoint; the CLI records
        how to rebuild the server/selector so ``repro resume`` works
        from the directory alone.
    telemetry:
        Optional :class:`~repro.metrics.telemetry.TelemetrySink`.  The
        runtime attaches it to the engine's bus (if not already
        attached), samples server-side gauges at every full snapshot
        and at crawl stop, and embeds a registry snapshot inside
        ``checkpoint.json`` so a resumed crawl reports continuous
        totals.
    trace:
        Optional :class:`~repro.trace.sink.TraceSink`.  Attached to the
        engine's bus (if not already attached) — which switches the
        engine/prober/selector phase instrumentation on — and its
        continuation state (next span seq, rounds horizon) is embedded
        in every full snapshot so a resumed crawl's trace file picks up
        exactly where the original left off.  With a ``checkpoint_dir``
        the trace is flushed after every step.
    """

    def __init__(
        self,
        engine: CrawlerEngine,
        checkpoint_dir: Optional[PathLike] = None,
        checkpoint_every: int = 100,
        snapshot_every: int = 0,
        setup: Optional[dict] = None,
        telemetry: Optional["TelemetrySink"] = None,
        trace: Optional["TraceSink"] = None,
    ) -> None:
        if checkpoint_every < 0:
            raise CrawlError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        if snapshot_every < 0:
            raise CrawlError(
                f"snapshot_every must be >= 0, got {snapshot_every}"
            )
        self.engine = engine
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.checkpoint_every = checkpoint_every
        self.snapshot_every = snapshot_every
        self.setup = setup
        self.telemetry = telemetry
        if telemetry is not None and telemetry not in engine.bus:
            engine.bus.attach(telemetry)
        self.trace = trace
        if trace is not None:
            # Durable crawls flush the trace at every step so its
            # durable horizon never falls behind the journal's.
            trace.step_flush = self.checkpoint_dir is not None
            if trace not in engine.bus:
                engine.bus.attach(trace)
        self.checkpoints_written = 0
        self._limits: dict = {}
        self._journal: Optional[OutcomeJournal] = None

    # ------------------------------------------------------------------
    # Fresh crawl
    # ------------------------------------------------------------------
    def crawl(
        self,
        seeds: Iterable[Seed],
        max_rounds: Optional[int] = None,
        max_queries: Optional[int] = None,
        target_coverage: Optional[float] = None,
        allow_empty_seeds: bool = False,
        stop_after_steps: Optional[int] = None,
    ) -> CrawlResult:
        """Run a new durable crawl (the engine must be unused).

        ``stop_after_steps`` suspends the crawl gracefully after that
        many completed steps this run (writing a final checkpoint);
        the result is then marked ``stopped_by="suspended"``.
        """
        self.engine.prepare(seeds, allow_empty_seeds=allow_empty_seeds)
        self._limits = {
            "max_rounds": max_rounds,
            "max_queries": max_queries,
            "target_coverage": target_coverage,
        }
        if self.checkpoint_dir is not None:
            self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
            self._journal = OutcomeJournal(
                self.checkpoint_dir / JOURNAL_FILE, append=False
            )
            self._write_checkpoint()  # baseline: resume works from step 0
        return self._run(stop_after_steps)

    # ------------------------------------------------------------------
    # Continue (after resume or suspension)
    # ------------------------------------------------------------------
    def run(
        self, stop_after_steps: Optional[int] = None, **limit_overrides
    ) -> CrawlResult:
        """Continue a prepared crawl to its limits (or suspend again)."""
        unknown = set(limit_overrides) - set(_LIMIT_KEYS)
        if unknown:
            raise CrawlError(f"unknown limit overrides: {sorted(unknown)}")
        self._limits.update(limit_overrides)
        if self.checkpoint_dir is not None and self._journal is None:
            self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
            self._journal = OutcomeJournal(
                self.checkpoint_dir / JOURNAL_FILE, append=True
            )
        return self._run(stop_after_steps)

    # ------------------------------------------------------------------
    def _run(self, stop_after_steps: Optional[int] = None) -> CrawlResult:
        engine = self.engine
        stopped_by = engine.step_until(
            stop_after_steps=stop_after_steps,
            on_step=self._journal_step if self._journal is not None else None,
            **self._limits,
        )
        if stopped_by == "suspended" and self.checkpoint_dir is not None:
            self._write_checkpoint()
        elif self._journal is not None:
            self._journal.flush()
        if self.telemetry is not None:
            self.telemetry.sample_server(engine.server)
        return engine.finish(stopped_by)

    def _journal_step(self, outcome: QueryOutcome) -> None:
        """Per-step hook: journal the step, then snapshot or mark."""
        engine = self.engine
        self._journal.record(
            step=engine.steps,
            rounds=engine.server.rounds,
            outcome=outcome,
            server_state=engine.server.runtime_state(),
            backoff_rng=(
                engine.backoff_rng if engine.prober.max_retries > 0 else None
            ),
        )
        if self.snapshot_every > 0 and engine.steps % self.snapshot_every == 0:
            self._write_checkpoint()
        elif (
            self.checkpoint_every > 0
            and engine.steps % self.checkpoint_every == 0
        ):
            self._commit_progress()

    def _write_checkpoint(self) -> None:
        """Full-state snapshot: baseline, suspension, ``snapshot_every``."""
        assert self.checkpoint_dir is not None
        if self._journal is not None:
            self._journal.flush()
        metrics = None
        if self.telemetry is not None:
            self.telemetry.sample_server(self.engine.server)
            metrics = self.telemetry.registry.state_dict()
        trace_state = (
            self.trace.state_dict() if self.trace is not None else None
        )
        checkpoint = CrawlCheckpoint.capture(
            self.engine,
            limits=self._limits,
            checkpoint_every=self.checkpoint_every,
            snapshot_every=self.snapshot_every,
            setup=self.setup,
            metrics=metrics,
            trace=trace_state,
        )
        path = self.checkpoint_dir / CHECKPOINT_FILE
        checkpoint.save(path)
        self._emit_checkpoint_written(checkpoint.step, path, snapshot=True)

    def _commit_progress(self) -> None:
        """Checkpoint marker: flush the journal, stamp the horizon.

        This is the hot-path checkpoint — O(1) regardless of crawl
        size.  Entries up to here are durable; recovery replays them
        from the last full snapshot, so no state snapshot is needed.
        """
        assert self.checkpoint_dir is not None and self._journal is not None
        self._journal.flush()
        path = self.checkpoint_dir / PROGRESS_FILE
        payload = {
            "step": self.engine.steps,
            "rounds": self.engine.server.rounds,
            "records": len(self.engine.local_db),
            "journal_entries": self._journal.entries_written,
        }
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, path)
        self._emit_checkpoint_written(self.engine.steps, path, snapshot=False)

    def _emit_checkpoint_written(
        self, step: int, path: Path, snapshot: bool
    ) -> None:
        self.checkpoints_written += 1
        if self.engine.bus.has_sinks:
            self.engine.bus.emit(
                CheckpointWritten(
                    step=step,
                    rounds=self.engine.server.rounds,
                    path=str(path),
                    snapshot=snapshot,
                ),
                policy=self.engine.selector.name,
            )

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    @classmethod
    def resume(
        cls,
        checkpoint_dir: PathLike,
        server,
        selector: QuerySelector,
        abortion: Optional[AbortionPolicy] = None,
        backoff: Optional[ExponentialBackoff] = None,
        bus: Optional[EventBus] = None,
        telemetry: Optional["TelemetrySink"] = None,
        trace: Optional["TraceSink"] = None,
    ) -> "RuntimeCrawler":
        """Rebuild a crawl from its checkpoint directory.

        The caller supplies a *fresh* server and selector constructed
        with the same configuration as the crashed crawl (data tables
        and constructor arguments are config, not state); engine flags
        (``use_xml``, ``keep_outcomes``, ``max_retries``) are read back
        from the checkpoint.  Journaled steps past the checkpoint are
        replayed, then the server and retry RNG are fast-forwarded to
        the last journaled instant.  Call :meth:`run` on the returned
        runtime to continue the crawl.

        When ``telemetry`` is given and the checkpoint carries a
        metrics snapshot, the snapshot is loaded into the sink's
        registry first, so counters continue from the last full
        snapshot instead of restarting at zero.  Journal replay emits
        no events; each replayed entry is counted through
        :meth:`~repro.metrics.telemetry.TelemetrySink.count_replayed`
        instead, so every counter a journal entry determines reads what
        the uninterrupted crawl's does.

        When ``trace`` is given (a :class:`~repro.trace.sink.TraceSink`
        built with ``fresh=False``), the sink is aligned to the
        recovered crawl position: spans the crashed run wrote past the
        journal's durable horizon are truncated away and the span
        sequence continues where the survivors end, so the resumed
        trace file ends up byte-identical to an uninterrupted run's.
        Replayed steps emit no phases — their spans already survive in
        the file.
        """
        directory = Path(checkpoint_dir)
        checkpoint_path = directory / CHECKPOINT_FILE
        if not checkpoint_path.exists():
            raise CheckpointError(f"no checkpoint at {checkpoint_path}")
        checkpoint = CrawlCheckpoint.load(checkpoint_path)
        if telemetry is not None and checkpoint.metrics is not None:
            telemetry.registry.load_state(checkpoint.metrics)
        flags = checkpoint.engine.get("flags", {})
        engine = CrawlerEngine(
            server,
            selector,
            seed=None,  # both RNG streams are restored from state below
            abortion=abortion,
            use_xml=flags.get("use_xml", False),
            keep_outcomes=flags.get("keep_outcomes", False),
            max_retries=flags.get("max_retries", 0),
            bus=bus,
            backoff=backoff,
        )
        checkpoint.restore_into(engine)
        entries = read_journal(directory / JOURNAL_FILE, after_step=checkpoint.step)
        for entry in entries:
            engine.replay_outcome(entry.outcome, entry.rounds)
            if telemetry is not None:
                telemetry.count_replayed(
                    entry.outcome,
                    step=entry.step,
                    rounds=entry.rounds,
                    records_total=len(engine.local_db),
                    policy=selector.name,
                )
        if entries:
            last = entries[-1]
            engine.server.load_runtime_state(last.server)
            if last.backoff_rng is not None:
                restore_rng(engine.backoff_rng, last.backoff_rng)
        if trace is not None:
            # Align after replay: engine.steps is the recovered horizon,
            # and the server's round counter seeds the per-step
            # rounds-cost deltas of the steps still to run.
            trace.align(
                step=engine.steps,
                rounds=engine.server.rounds,
                state=checkpoint.trace,
            )
        runtime = cls(
            engine,
            checkpoint_dir=directory,
            checkpoint_every=checkpoint.checkpoint_every,
            snapshot_every=checkpoint.snapshot_every,
            setup=checkpoint.setup,
            telemetry=telemetry,
            trace=trace,
        )
        runtime._limits = dict(checkpoint.limits)
        return runtime
