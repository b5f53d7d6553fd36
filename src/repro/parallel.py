"""Deterministic parallel fan-out for experiment grids.

The paper's evaluation protocol repeats every figure as a grid of
independent crawls — each policy run once per seed set, each crawl on a
fresh server with a fresh selector.  Those crawls share nothing but the
read-only :class:`~repro.core.table.RelationalTable`, so they
parallelize perfectly; this module fans a (policy × seed-set) grid out
over a process pool while keeping the *results* indistinguishable from
the sequential loop:

- **Seed derivation is preserved exactly.**  Task ``i`` of a policy's
  seed sets gets engine seed ``rng_seed + i`` — the same arithmetic the
  sequential harness uses — so every crawl's RNG stream is identical
  whether it runs in-process or in a worker.
- **The table ships once, not per task.**  Under the ``fork`` start
  method (the default on POSIX) the grid — table, server factory,
  policy factories — is published to a module global before the pool
  forks, so workers inherit it through copy-on-write and nothing heavy
  is pickled per task; each submitted work item is a bare task index.
  Under ``spawn`` the grid is pickled once per worker via the pool
  initializer; if it cannot be pickled (closures are legal grid
  factories) the map silently degrades to the sequential path rather
  than failing.
- **Results merge in fixed task order.**  Futures are collected in
  submission order, so a parallel :class:`PolicyRun` is bit-identical
  to the sequential one — same result order, same histories, same
  coverage curves.

``workers=1`` *is* the legacy sequential path: the same per-task
function runs inline in the calling process, in task order.

Per-task wall-clock timings are announced on the PR-1 event bus
(:class:`~repro.runtime.events.ExperimentTaskCompleted` /
:class:`~repro.runtime.events.ExperimentSuiteCompleted`) so
:func:`repro.analysis.reports.render_speedup_table` can show where the
time went and what the fan-out bought.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.core.values import AttributeValue
from repro.crawler.engine import CrawlerEngine, CrawlResult
from repro.metrics.registry import MetricsRegistry
from repro.metrics.telemetry import TelemetrySink
from repro.runtime.events import (
    EventBus,
    ExperimentSuiteCompleted,
    ExperimentTaskCompleted,
)

#: What CLI flags and keyword arguments accept for a worker count.
WorkerSpec = Union[int, str, None]


# ----------------------------------------------------------------------
# Worker-count resolution
# ----------------------------------------------------------------------
def available_workers() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def parse_workers(text: WorkerSpec) -> Optional[int]:
    """Turn a CLI ``--workers`` value into ``None`` (auto) or an int."""
    if text is None or text == "" or str(text).lower() == "auto":
        return None
    count = int(text)
    if count < 1:
        raise ValueError(f"--workers must be >= 1 or 'auto', got {text!r}")
    return count


def resolve_workers(workers: WorkerSpec = None, n_tasks: Optional[int] = None) -> int:
    """Resolve a worker spec against the machine and the task count.

    ``None``/``"auto"`` use every available CPU; an explicit count is
    honoured as given (tests force multi-process runs on small
    machines this way).  Never more workers than tasks.
    """
    parsed = parse_workers(workers)
    count = available_workers() if parsed is None else parsed
    if n_tasks is not None:
        count = min(count, max(n_tasks, 1))
    return max(count, 1)


# ----------------------------------------------------------------------
# The generic deterministic map
# ----------------------------------------------------------------------
#: Parent-set state inherited by forked workers: ``(payload, fn)``.
_WORKER_STATE: Optional[tuple] = None


def _init_worker(blob: bytes) -> None:
    """Spawn-mode pool initializer: unpickle the shared state once."""
    global _WORKER_STATE
    _WORKER_STATE = pickle.loads(blob)


def _invoke(item: Any) -> Any:
    """Worker entry point: apply the shared ``fn`` to one item."""
    assert _WORKER_STATE is not None, "worker state was not initialized"
    payload, fn = _WORKER_STATE
    return fn(payload, item)


def parallel_map(
    fn: Callable[[Any, Any], Any],
    items: Iterable[Any],
    payload: Any = None,
    workers: WorkerSpec = None,
) -> List[Any]:
    """``[fn(payload, item) for item in items]`` over a process pool.

    Deterministic: results come back in item order regardless of which
    worker finished first.  ``payload`` is shipped to workers once (via
    fork inheritance, or one pickle per worker under spawn), never per
    item; items themselves should be small (indexes, labels).

    With one worker — or one item, or an unpicklable payload on a
    spawn-only platform — the map runs inline in the calling process,
    which is the exact legacy sequential path.
    """
    global _WORKER_STATE
    work = list(items)
    count = resolve_workers(workers, len(work))
    if count <= 1 or len(work) <= 1:
        return [fn(payload, item) for item in work]
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        context = multiprocessing.get_context("fork")
        _WORKER_STATE = (payload, fn)
        try:
            with ProcessPoolExecutor(max_workers=count, mp_context=context) as pool:
                futures = [pool.submit(_invoke, item) for item in work]
                return [future.result() for future in futures]
        finally:
            _WORKER_STATE = None
    try:
        blob = pickle.dumps((payload, fn))
    except Exception:
        # Closures over tables/selectors are legal grid factories; on a
        # spawn-only platform they cannot cross the process boundary,
        # so degrade to the (identical-result) sequential path.
        return [fn(payload, item) for item in work]
    with ProcessPoolExecutor(
        max_workers=count,
        mp_context=multiprocessing.get_context(),
        initializer=_init_worker,
        initargs=(blob,),
    ) as pool:
        futures = [pool.submit(_invoke, item) for item in work]
        return [future.result() for future in futures]


# ----------------------------------------------------------------------
# Crawl grids
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CrawlTask:
    """One independent crawl of an experiment grid.

    ``seed_index`` indexes the seed-set list and derives the engine
    seed (``grid.rng_seed + seed_index``) exactly as the sequential
    harness always has.  ``key`` carries an extra grid dimension — e.g.
    Figure 6's result limit — for the server factory to pick up.
    """

    label: str
    seed_index: int
    seeds: Tuple[AttributeValue, ...]
    key: Any = None


@dataclass
class CrawlGrid:
    """A full experiment grid: factories plus the task list.

    The factories run *inside workers* (after fork), so they may be
    closures over the shared read-only table/setup; every task builds a
    fresh server (fresh communication log) and a fresh selector, the
    same contract the sequential harness enforces.
    """

    make_server: Callable[[CrawlTask], Any]
    make_selector: Callable[[CrawlTask], Any]
    tasks: Tuple[CrawlTask, ...]
    rng_seed: int = 0
    crawl_kwargs: Mapping[str, Any] = field(default_factory=dict)
    engine_kwargs: Mapping[str, Any] = field(default_factory=dict)
    #: Attach a per-task :class:`~repro.metrics.telemetry.TelemetrySink`
    #: inside each worker and ship its registry state back with the
    #: result.  Wall-time tracking is disabled in workers so the merged
    #: registry is identical whether tasks ran sequentially or fanned
    #: out.  Usually set via ``run_crawl_grid(..., metrics=...)``.
    collect_metrics: bool = False
    #: Attach a per-task :class:`~repro.trace.sink.TraceSink` inside
    #: each worker and ship its span lines back for fixed-task-order
    #: merging.  Usually set via ``run_crawl_grid(..., trace=...)``.
    collect_trace: bool = False
    #: Whether worker trace spans carry wall/CPU timings.  Off for
    #: canonical (byte-comparable across worker counts *and* runs)
    #: traces; span ids/attrs are deterministic either way.
    trace_timings: bool = True


@dataclass(frozen=True)
class TaskTiming:
    """Wall-clock accounting for one completed grid task."""

    label: str
    seed_index: int
    seconds: float
    rounds: int
    records: int


@dataclass
class GridOutcome:
    """Everything a grid run produced, in fixed task order."""

    tasks: Tuple[CrawlTask, ...]
    results: List[CrawlResult]
    timings: List[TaskTiming]
    wall_seconds: float
    workers: int
    #: Merged per-task telemetry (only when metrics collection was on).
    metrics: Optional[MetricsRegistry] = None
    #: Path of the merged span-JSONL trace and its span count (only
    #: when trace collection was on).
    trace_path: Optional[str] = None
    trace_spans: int = 0

    @property
    def task_seconds(self) -> float:
        """Sum of per-task crawl time (the sequential-equivalent cost)."""
        return sum(timing.seconds for timing in self.timings)

    def by_label(self) -> Dict[str, List[CrawlResult]]:
        """Results grouped by task label, preserving first-seen order."""
        grouped: Dict[str, List[CrawlResult]] = {}
        for timing, result in zip(self.timings, self.results):
            grouped.setdefault(timing.label, []).append(result)
        return grouped


def _crawl_one(
    grid: CrawlGrid, index: int
) -> Tuple[CrawlResult, float, Optional[dict], Optional[List[str]]]:
    """Execute one grid task end to end (runs inside a worker).

    Returns ``(result, seconds, metrics_state, trace_lines)`` where
    ``metrics_state`` is the task's telemetry registry snapshot when
    ``grid.collect_metrics`` is set, and ``trace_lines`` the task's
    span-JSONL lines when ``grid.collect_trace`` is set.
    """
    task = grid.tasks[index]
    started = time.perf_counter()
    server = grid.make_server(task)
    selector = grid.make_selector(task)
    engine_kwargs = dict(grid.engine_kwargs)
    sink: Optional[TelemetrySink] = None
    tracer = None
    if grid.collect_metrics:
        truth = getattr(server, "truth_size", None)
        sink = TelemetrySink(
            truth_size=truth() if callable(truth) else None,
            track_wall_time=False,
        )
        bus = engine_kwargs.get("bus") or EventBus()
        bus.attach(sink)
        engine_kwargs["bus"] = bus
    if grid.collect_trace:
        from repro.trace.sink import TraceSink

        tracer = TraceSink(path=None, include_timings=grid.trace_timings)
        bus = engine_kwargs.get("bus") or EventBus()
        bus.attach(tracer)
        engine_kwargs["bus"] = bus
    engine = CrawlerEngine(
        server, selector, seed=grid.rng_seed + task.seed_index, **engine_kwargs
    )
    result = engine.crawl(list(task.seeds), **grid.crawl_kwargs)
    metrics_state = None
    if sink is not None:
        sink.sample_server(server)
        sink.sample_selector(selector, policy=result.policy)
        metrics_state = sink.registry.state_dict()
    trace_lines = tracer.collected if tracer is not None else None
    return result, time.perf_counter() - started, metrics_state, trace_lines


def run_crawl_grid(
    grid: CrawlGrid,
    workers: WorkerSpec = None,
    bus: Optional[EventBus] = None,
    metrics: Optional[MetricsRegistry] = None,
    trace: Optional[Union[str, "os.PathLike"]] = None,
    trace_timings: bool = True,
    trace_append: bool = False,
) -> GridOutcome:
    """Run every task of ``grid`` and merge results in task order.

    The parallel outcome is bit-identical to ``workers=1``: same seeds,
    same construction per task, same result order.  Per-task timings
    (and a suite summary) are emitted on ``bus`` when one is supplied.

    Passing ``metrics`` turns on per-task telemetry collection: each
    worker feeds a private registry and the returned state dicts are
    merged into ``metrics`` *in fixed task order*, so the merged totals
    are identical for any worker count.

    Passing ``trace`` (a path) turns on per-task span tracing: each
    worker's :class:`~repro.trace.sink.TraceSink` collects span lines
    and the merged ``repro-trace/1`` file is written in fixed task
    order — identical structure at any worker count, and byte-identical
    when ``trace_timings`` is off.
    """
    if metrics is not None and not grid.collect_metrics:
        grid = replace(grid, collect_metrics=True)
    if trace is not None and (
        not grid.collect_trace or grid.trace_timings != trace_timings
    ):
        grid = replace(grid, collect_trace=True, trace_timings=trace_timings)
    count = resolve_workers(workers, len(grid.tasks))
    started = time.perf_counter()
    rows = parallel_map(
        _crawl_one, range(len(grid.tasks)), payload=grid, workers=count
    )
    wall = time.perf_counter() - started
    results: List[CrawlResult] = []
    timings: List[TaskTiming] = []
    trace_tasks: List[Tuple[str, int, List[str]]] = []
    for task, (result, seconds, metrics_state, trace_lines) in zip(
        grid.tasks, rows
    ):
        label = task.label or result.policy
        results.append(result)
        timings.append(
            TaskTiming(
                label=label,
                seed_index=task.seed_index,
                seconds=seconds,
                rounds=result.communication_rounds,
                records=result.records_harvested,
            )
        )
        if metrics is not None and metrics_state is not None:
            metrics.merge(metrics_state)
        if trace is not None and trace_lines is not None:
            trace_tasks.append((label, task.seed_index, trace_lines))
    trace_spans = 0
    if trace is not None:
        from repro.trace.sink import write_trace

        trace_spans = write_trace(trace, trace_tasks, append=trace_append)
    outcome = GridOutcome(
        tasks=grid.tasks,
        results=results,
        timings=timings,
        wall_seconds=wall,
        workers=count,
        metrics=metrics,
        trace_path=str(trace) if trace is not None else None,
        trace_spans=trace_spans,
    )
    if bus is not None and bus.has_sinks:
        for timing in timings:
            bus.emit(
                ExperimentTaskCompleted(
                    label=timing.label,
                    seed_index=timing.seed_index,
                    seconds=timing.seconds,
                    rounds=timing.rounds,
                    records=timing.records,
                ),
                policy=timing.label,
            )
        bus.emit(
            ExperimentSuiteCompleted(
                tasks=len(timings),
                workers=count,
                wall_seconds=wall,
                task_seconds=outcome.task_seconds,
            )
        )
    return outcome
