"""The crawler engine — the "query–harvest–decompose" loop.

:class:`CrawlerEngine` wires together the components of Section 2.5:
the Query Selector (any :class:`~repro.policies.base.QuerySelector`),
the Database Prober, the Result Extractor, and ``DB_local``.  One call
to :meth:`CrawlerEngine.crawl` runs the loop from seed values until a
stopping criterion fires and returns a :class:`CrawlResult` carrying the
full coverage-versus-cost history the experiments plot.

Stopping criteria (any combination; first to fire wins):

- the frontier is exhausted (always on),
- ``max_rounds`` — a communication budget (Figure 5 uses 10,000),
- ``max_queries`` — a query budget,
- ``target_coverage`` — measured against the source's true size; this
  mirrors the paper's controlled experiments, which report the cost of
  reaching 10%…90% coverage and therefore observe true coverage.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.errors import CrawlError, UnsupportedQueryError
from repro.core.query import AnyQuery, ConjunctiveQuery, Query
from repro.core.values import AttributeValue
from repro.crawler.abortion import AbortionPolicy
from repro.crawler.context import CrawlerContext
from repro.crawler.extractor import ResultExtractor
from repro.crawler.localdb import LocalDatabase
from repro.crawler.metrics import CrawlHistory
from repro.crawler.prober import DatabaseProber, QueryOutcome
from repro.policies.base import QuerySelector
from repro.runtime.events import (
    CrawlStopped,
    EventBus,
    PhaseCompleted,
    RecordsHarvested,
    StepStarted,
)
from repro.server.flaky import ExponentialBackoff
from repro.server.webdb import SimulatedWebDatabase

Seed = Union[AttributeValue, Tuple[str, str], str]

#: Decorrelates the backoff-jitter stream from the policy stream when
#: both derive from the same user-facing seed.
_BACKOFF_SEED_SALT = 0x9E3779B9


@dataclass
class CrawlResult:
    """Outcome of one crawl."""

    policy: str
    communication_rounds: int
    queries_issued: int
    records_harvested: int
    coverage: float
    history: CrawlHistory
    aborted_queries: int = 0
    rejected_queries: int = 0
    failed_queries: int = 0
    stopped_by: str = "frontier-exhausted"
    outcomes: List[QueryOutcome] = field(default_factory=list)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CrawlResult({self.policy}: {self.records_harvested} records, "
            f"{self.coverage:.1%} coverage, {self.communication_rounds} rounds, "
            f"{self.queries_issued} queries, stopped by {self.stopped_by})"
        )


def normalize_seed(seed: Seed) -> AttributeValue:
    """Accept ``AttributeValue``, ``(attribute, value)`` or bare string seeds.

    Bare strings become keyword-style seeds under the pseudo-attribute
    ``"*"``; the engine will only be able to issue them on interfaces
    with a search box.
    """
    if isinstance(seed, AttributeValue):
        return seed
    if isinstance(seed, tuple):
        attribute, value = seed
        return AttributeValue(attribute, value)
    return AttributeValue("*", seed)


class CrawlerEngine:
    """Drives one policy against one simulated web source.

    Parameters
    ----------
    server:
        The target source.
    selector:
        The query-selection policy (consumed: do not reuse a selector
        across crawls; build a fresh one per run).
    seed:
        RNG seed for the policy's random choices.
    abortion:
        Optional page-fetch abortion policy (Section 3.4).
    use_xml:
        Exercise the XML wire format end to end.
    keep_outcomes:
        Retain per-query outcomes on the result (memory-heavy; off by
        default).
    bus:
        Event bus every layer of this crawl announces on; defaults to a
        silent bus (see :mod:`repro.runtime.events`).
    backoff:
        Retry backoff schedule, forwarded to the prober (only relevant
        with ``max_retries > 0``).
    local_db:
        Override the ``DB_local`` implementation.  Defaults to the
        interned :class:`~repro.crawler.localdb.LocalDatabase`; the
        hot-path benchmark passes
        :class:`~repro.crawler.reference.ReferenceLocalDatabase` to
        measure against the pre-interning behaviour (selectors detect
        the missing interner and fall back to value-keyed scoring).
        Must be freshly constructed with ``track_cooccurrence``
        matching the selector's ``requires_cooccurrence``.
    """

    def __init__(
        self,
        server: SimulatedWebDatabase,
        selector: QuerySelector,
        seed: Optional[int] = None,
        abortion: Optional[AbortionPolicy] = None,
        use_xml: bool = False,
        keep_outcomes: bool = False,
        max_retries: int = 0,
        bus: Optional[EventBus] = None,
        backoff: Optional[ExponentialBackoff] = None,
        local_db=None,
    ) -> None:
        self.server = server
        self.selector = selector
        self.rng = random.Random(seed)
        self.bus = bus or EventBus()
        self.backoff = backoff
        # Separate stream for retry jitter: backoff draws must not
        # perturb the policy's selection randomness.
        self.backoff_rng = random.Random(
            seed ^ _BACKOFF_SEED_SALT if seed is not None else None
        )
        self.local_db = (
            local_db
            if local_db is not None
            else LocalDatabase(track_cooccurrence=selector.requires_cooccurrence)
        )
        self.extractor = ResultExtractor(
            server.interface,
            interner=getattr(self.local_db, "interner", None),
        )
        self.prober = DatabaseProber(
            server,
            self.extractor,
            self.local_db,
            abortion,
            use_xml,
            max_retries=max_retries,
            bus=self.bus,
            backoff=backoff,
            retry_rng=self.backoff_rng,
            policy=selector.name,
        )
        self.keep_outcomes = keep_outcomes
        self.context = CrawlerContext(
            local_db=self.local_db,
            interface=server.interface,
            page_size=server.page_size,
            rng=self.rng,
            coverage_oracle=self._true_coverage,
        )
        selector.bind(self.context)
        self._issued: set[AnyQuery] = set()
        # Dense-id mirror of context.queried_values (interned databases
        # only): lets the candidate filter compare ints instead of
        # hashing AttributeValues.
        self._queried_ids: Optional[set[int]] = (
            set() if hasattr(self.local_db, "interner") else None
        )
        self._started = False
        self._exhausted = False
        self._history = CrawlHistory()
        self._aborted = 0
        self._rejected = 0
        self._failed = 0
        self._steps = 0
        self._outcomes: List[QueryOutcome] = []

    # ------------------------------------------------------------------
    # Incremental API — prepare / step / result
    # ------------------------------------------------------------------
    def prepare(self, seeds: Iterable[Seed], allow_empty_seeds: bool = False) -> None:
        """Install the seed values and arm the engine (idempotent guard).

        ``allow_empty_seeds`` permits starting with no seed values for
        selectors that can formulate queries on their own — the DM
        selector's domain table, or a clique selector pre-seeded with
        combinations.
        """
        if self._started:
            raise CrawlError("engines are single-use; build a new one per crawl")
        self._started = True
        seed_values = [normalize_seed(s) for s in seeds]
        if not seed_values and not allow_empty_seeds:
            raise CrawlError("at least one seed value is required")
        for value in seed_values:
            self.selector.add_candidate(value)
        self._history.append(0, 0)

    def step(self) -> Optional[QueryOutcome]:
        """Execute the next query end to end; None when the frontier is dry.

        One step = one query–harvest–decompose iteration: ask the
        selector, formulate/validate the wire query, page through the
        results (with abortion/retries as configured), feed discoveries
        back.  Schedulers interleave steps across several engines to
        share a budget between sources.
        """
        if not self._started:
            raise CrawlError("call prepare() (or crawl()) before step()")
        tracing = self.bus.has_tracers
        if tracing:
            step_no = self._steps + 1
            policy = self.selector.name
            self.bus.emit(StepStarted(step=step_no), policy=policy)
            if self.selector._trace_emit is None:
                # Lazily armed on the first traced live step so journal
                # replay (which also drives next_query/observe_outcome)
                # never emits phases for work the crawl already paid for.
                self.selector.set_trace_emitter(self._emit_selector_phase)
        while True:
            if tracing:
                wall0 = time.perf_counter()
                cpu0 = time.process_time()
            proposal = self.selector.next_query()
            if tracing:
                self.bus.emit(
                    PhaseCompleted(
                        step=step_no,
                        phase="select",
                        seconds=time.perf_counter() - wall0,
                        cpu_seconds=time.process_time() - cpu0,
                    ),
                    policy=policy,
                )
            if proposal is None:
                self._exhausted = True
                return None
            value, query = self._formulate(proposal)
            if query is None or query in self._issued:
                # Inexpressible on this interface, or the same wire query
                # was already sent for an equal-valued candidate.
                continue

            outcome = self.prober.execute(query)
            if outcome.rejected:
                self._rejected += 1
                continue

            if tracing:
                if outcome.pages_fetched:
                    detail = {"pages": outcome.pages_fetched}
                    if outcome.total_matches is not None:
                        detail["matches"] = outcome.total_matches
                    self.bus.emit(
                        PhaseCompleted(
                            step=step_no,
                            phase="extract",
                            seconds=self.prober.last_extract_wall,
                            cpu_seconds=self.prober.last_extract_cpu,
                            detail=detail,
                        ),
                        policy=policy,
                    )
                wall0 = time.perf_counter()
                cpu0 = time.process_time()
            self._apply_outcome(value, query, outcome, self.server.rounds)
            if tracing:
                self.bus.emit(
                    PhaseCompleted(
                        step=step_no,
                        phase="decompose",
                        seconds=time.perf_counter() - wall0,
                        cpu_seconds=time.process_time() - cpu0,
                        detail={
                            "candidates": len(outcome.candidate_values),
                            "new_records": len(outcome.new_records),
                        },
                    ),
                    policy=policy,
                )
            if self.bus.has_sinks:
                self.bus.emit(
                    RecordsHarvested(
                        query=query,
                        step=self._steps,
                        new_records=len(outcome.new_records),
                        pages_fetched=outcome.pages_fetched,
                        records_total=len(self.local_db),
                        rounds=self.server.rounds,
                    ),
                    policy=self.selector.name,
                )
            return outcome

    def _emit_selector_phase(
        self,
        phase: str,
        seconds: float,
        cpu_seconds: float,
        detail: Optional[dict] = None,
    ) -> None:
        """Selector-internal phase hook (see QuerySelector.set_trace_emitter).

        ``_steps`` is only incremented at the very end of
        ``_apply_outcome``, so ``_steps + 1`` names the in-flight step
        everywhere a selector can run — scoring inside ``next_query``
        and frontier refresh inside ``observe_outcome`` alike.
        """
        self.bus.emit(
            PhaseCompleted(
                step=self._steps + 1,
                phase=phase,
                seconds=seconds,
                cpu_seconds=cpu_seconds,
                detail=detail or {},
            ),
            policy=self.selector.name,
        )

    def _formulate(
        self, proposal
    ) -> Tuple[Optional[AttributeValue], Optional[AnyQuery]]:
        """Turn a selector proposal into the wire query it implies."""
        if isinstance(proposal, (Query, ConjunctiveQuery)):
            # Policies for richer interfaces (e.g. multi-attribute
            # sources) formulate whole queries themselves.
            return None, proposal
        return proposal, self.context.value_to_query(proposal)

    def _apply_outcome(
        self,
        value: Optional[AttributeValue],
        query: AnyQuery,
        outcome: QueryOutcome,
        rounds: int,
    ) -> None:
        """Fold one executed query's outcome into the crawl state.

        Shared by the live step and journal replay; ``rounds`` is the
        server's round counter after the query (replay passes the
        journaled value instead of reading the live server).
        """
        self._issued.add(query)
        self.context.lqueried.append(query)
        if value is not None:
            self.context.queried_values.add(value)
            if self._queried_ids is not None:
                self._queried_ids.add(self.local_db.intern_value(value))
        if outcome.aborted:
            self._aborted += 1
        if outcome.failed:
            self._failed += 1
        candidate_ids = outcome.candidate_ids
        if candidate_ids is not None and self._queried_ids is not None:
            # Live interned path: candidate_ids mirrors candidate_values
            # 1:1, so the already-queried filter runs on ints.
            queried_ids = self._queried_ids
            values = outcome.candidate_values
            add_candidate_id = self.selector.add_candidate_id
            for index, vid in enumerate(candidate_ids):
                if vid not in queried_ids:
                    add_candidate_id(vid, values[index])
        else:
            # Value path: replayed outcomes (ids are never journaled) and
            # non-interned databases.
            for candidate in outcome.candidate_values:
                if candidate not in self.context.queried_values:
                    self.selector.add_candidate(candidate)
        self.selector.observe_outcome(outcome)
        if self.keep_outcomes:
            self._outcomes.append(outcome)
        self._steps += 1
        self._history.append(rounds, len(self.local_db))

    def result(self, stopped_by: Optional[str] = None) -> CrawlResult:
        """Snapshot the crawl's current totals as a :class:`CrawlResult`."""
        if stopped_by is None:
            stopped_by = "frontier-exhausted" if self._exhausted else "in-progress"
        return CrawlResult(
            policy=self.selector.name,
            communication_rounds=self.server.rounds,
            queries_issued=len(self.context.lqueried),
            records_harvested=len(self.local_db),
            coverage=self._true_coverage(),
            history=self._history,
            aborted_queries=self._aborted,
            rejected_queries=self._rejected,
            failed_queries=self._failed,
            stopped_by=stopped_by,
            outcomes=self._outcomes,
        )

    # ------------------------------------------------------------------
    # The closed loop
    # ------------------------------------------------------------------
    def crawl(
        self,
        seeds: Iterable[Seed],
        max_rounds: Optional[int] = None,
        max_queries: Optional[int] = None,
        target_coverage: Optional[float] = None,
        allow_empty_seeds: bool = False,
    ) -> CrawlResult:
        """Run the query–harvest–decompose loop to a stopping criterion."""
        self.prepare(seeds, allow_empty_seeds=allow_empty_seeds)
        return self.finish(
            self.step_until(
                max_rounds=max_rounds,
                max_queries=max_queries,
                target_coverage=target_coverage,
            )
        )

    def step_until(
        self,
        max_rounds: Optional[int] = None,
        max_queries: Optional[int] = None,
        target_coverage: Optional[float] = None,
        stop_after_steps: Optional[int] = None,
        on_step: Optional[Callable[[QueryOutcome], None]] = None,
    ) -> str:
        """Step until a stopping criterion fires; return its name.

        The one copy of the stopping loop: the criteria are checked in
        this order before every step, and the frontier running dry ends
        the loop as ``"frontier-exhausted"``.  ``stop_after_steps``
        counts the steps of this call (``"suspended"``); ``on_step``
        runs after each completed step with its outcome — the durable
        runtime journals and checkpoints there.
        """
        steps = 0
        while True:
            if max_rounds is not None and self.server.rounds >= max_rounds:
                return "max-rounds"
            if max_queries is not None and len(self.context.lqueried) >= max_queries:
                return "max-queries"
            if (
                target_coverage is not None
                and self._true_coverage() >= target_coverage
            ):
                return "target-coverage"
            if stop_after_steps is not None and steps >= stop_after_steps:
                return "suspended"
            outcome = self.step()
            if outcome is None:
                return "frontier-exhausted"
            steps += 1
            if on_step is not None:
                on_step(outcome)

    def finish(self, stopped_by: str) -> CrawlResult:
        """The crawl's result, announced on the bus as :class:`CrawlStopped`."""
        result = self.result(stopped_by)
        if self.bus.has_sinks:
            self.bus.emit(
                CrawlStopped(
                    stopped_by=stopped_by,
                    rounds=result.communication_rounds,
                    queries=result.queries_issued,
                    records=result.records_harvested,
                ),
                policy=self.selector.name,
            )
        return result

    # ------------------------------------------------------------------
    # Durable-runtime API (see repro.runtime)
    # ------------------------------------------------------------------
    @property
    def steps(self) -> int:
        """Completed query–harvest–decompose steps so far."""
        return self._steps

    def state_dict(self) -> dict:
        """JSON-safe snapshot of all engine-side crawl state.

        The selector contributes its own state via
        :meth:`~repro.policies.base.QuerySelector.state_dict`; server
        state is snapshotted separately (``server.runtime_state()``)
        because schedulers share one engine per source but the runtime
        owns when server state is captured.
        """
        from repro.runtime.serialize import (
            encode_interner,
            encode_query,
            encode_record,
            encode_rng,
            encode_value,
            query_sort_key,
        )

        state = {
            "started": self._started,
            "exhausted": self._exhausted,
            "steps": self._steps,
            "issued": [
                encode_query(q) for q in sorted(self._issued, key=query_sort_key)
            ],
            "lqueried": [encode_query(q) for q in self.context.lqueried],
            "queried_values": [
                encode_value(v) for v in sorted(self.context.queried_values)
            ],
            "rng": encode_rng(self.rng),
            "backoff_rng": encode_rng(self.backoff_rng),
            "aborted": self._aborted,
            "rejected": self._rejected,
            "failed": self._failed,
            "history": [[p.rounds, p.records] for p in self._history.points],
            "records": [encode_record(r) for r in self.local_db],
            "selector": self.selector.state_dict(),
            "selector_name": self.selector.name,
            "flags": {
                "use_xml": self.prober.use_xml,
                "keep_outcomes": self.keep_outcomes,
                "max_retries": self.prober.max_retries,
            },
        }
        if self.keep_outcomes:
            from repro.runtime.journal import encode_outcome

            state["outcomes"] = [encode_outcome(o) for o in self._outcomes]
        interner = getattr(self.local_db, "interner", None)
        if interner is not None:
            # The dense id assignment (first-seen order, including
            # frontier values no record contains).  Restoring it before
            # the records re-add guarantees a resumed crawl holds the
            # exact id layout of the original — no crawl decision reads
            # id values, but keeping them identical makes resumed state
            # snapshots byte-comparable to the original run's.
            state["interner"] = encode_interner(interner)
        return state

    def load_state(self, state: dict) -> None:
        """Restore a snapshot onto a freshly constructed engine.

        The engine must have been built with the same server config,
        selector type/config, and flags as the one that produced the
        snapshot; ``prepare``/``crawl`` must not have been called.  A
        different selector or different flags raise :class:`CrawlError`
        (snapshots that predate the recorded selector name skip that
        check); a missing engine or selector key raises
        :class:`~repro.runtime.checkpoint.CheckpointError` naming it.
        """
        from repro.runtime.checkpoint import CheckpointError

        if self._started:
            raise CrawlError("load_state requires a fresh engine")
        selector_name = state.get("selector_name", self.selector.name)
        if selector_name != self.selector.name:
            raise CrawlError(
                f"selector mismatch: checkpoint was written by "
                f"{selector_name!r}, this engine runs {self.selector.name!r}"
            )
        flags = state.get("flags")
        if flags is not None:
            current = {
                "use_xml": self.prober.use_xml,
                "keep_outcomes": self.keep_outcomes,
                "max_retries": self.prober.max_retries,
            }
            if flags != current:
                raise CrawlError(
                    f"engine config mismatch: checkpoint has {flags}, "
                    f"this engine has {current}"
                )
        try:
            self._load_engine_state(state)
            selector_state = state["selector"]
        except KeyError as error:
            raise CheckpointError(
                f"checkpoint engine state lacks key {error}"
            ) from error
        try:
            self.selector.load_state(selector_state)
        except KeyError as error:
            raise CheckpointError(
                f"checkpoint selector state lacks key {error}"
            ) from error

    def _load_engine_state(self, state: dict) -> None:
        from repro.runtime.serialize import (
            decode_query,
            decode_record,
            decode_value,
            restore_rng,
        )

        self._started = state["started"]
        self._exhausted = state["exhausted"]
        self._steps = state["steps"]
        self._issued = {decode_query(q) for q in state["issued"]}
        # lqueried and queried_values live on the shared context: mutate
        # in place so the selector's bound view stays consistent.
        self.context.lqueried.extend(decode_query(q) for q in state["lqueried"])
        queried_values = [decode_value(v) for v in state["queried_values"]]
        self.context.queried_values.update(queried_values)
        restore_rng(self.rng, state["rng"])
        restore_rng(self.backoff_rng, state["backoff_rng"])
        self._aborted = state["aborted"]
        self._rejected = state["rejected"]
        self._failed = state["failed"]
        self._history = CrawlHistory()
        for rounds, records in state["history"]:
            self._history.append(rounds, records)
        # Restore the dense id assignment first (older checkpoints and
        # non-interned databases simply skip this), then re-add records
        # in insertion order to rebuild DB_local's graph (degrees,
        # co-occurrence) exactly as the original crawl did.
        interner_state = state.get("interner")
        if interner_state is not None and hasattr(self.local_db, "interner"):
            self.local_db.load_interner_state(interner_state)
        for payload in state["records"]:
            self.local_db.add(decode_record(payload))
        if self._queried_ids is not None:
            # The snapshot's queried values are already in the restored
            # interner, so this assigns no new ids; the sorted snapshot
            # order keeps any fallback assignment deterministic anyway.
            intern_value = self.local_db.intern_value
            self._queried_ids.update(intern_value(v) for v in queried_values)
        if "outcomes" in state and self.keep_outcomes:
            from repro.runtime.journal import decode_outcome

            self._outcomes = [decode_outcome(o) for o in state["outcomes"]]

    def replay_outcome(self, outcome: QueryOutcome, rounds_after: int) -> None:
        """Re-apply one journaled step without contacting the server.

        Drives the selector through exactly the proposals the live step
        consumed (reproducing its RNG draws and skip decisions, with
        interface rejection re-derived locally — validation is
        deterministic and consumes no server state), verifies the
        selected wire query matches the journaled one, then folds the
        journaled outcome in.  Raises :class:`CrawlError` if the replay
        diverges — a corrupted journal or a config mismatch.
        """
        if not self._started:
            raise CrawlError("load a checkpoint (or prepare()) before replay")
        while True:
            proposal = self.selector.next_query()
            if proposal is None:
                raise CrawlError(
                    f"journal replay diverged: selector exhausted while "
                    f"expecting {outcome.query}"
                )
            value, query = self._formulate(proposal)
            if query is None or query in self._issued:
                continue
            try:
                self.server.interface.validate(query)
            except UnsupportedQueryError:
                # The live step saw the prober reject this query.
                self._rejected += 1
                continue
            break
        if query != outcome.query:
            raise CrawlError(
                f"journal replay diverged: journal has {outcome.query}, "
                f"selector proposed {query}"
            )
        for record in outcome.new_records:
            self.local_db.add(record)
        self._apply_outcome(value, query, outcome, rounds_after)

    # ------------------------------------------------------------------
    def _true_coverage(self) -> float:
        size = self.server.truth_size()
        if size == 0:
            return 1.0
        return len(self.local_db) / size


def run_crawl(
    server: SimulatedWebDatabase,
    selector: QuerySelector,
    seeds: Sequence[Seed],
    seed: Optional[int] = None,
    **crawl_kwargs,
) -> CrawlResult:
    """One-shot convenience: build an engine and crawl."""
    return CrawlerEngine(server, selector, seed=seed).crawl(seeds, **crawl_kwargs)
