"""Shared machinery for the per-figure experiment drivers.

The paper's evaluation protocol repeats across figures: build a
controlled source, pick seed values, run each query-selection policy,
average over several seeds, and read either *cost to reach coverage
levels* (Figure 3/4) or *coverage within a round budget* (Figure 5/6)
off the crawl histories.  This module implements that protocol once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.table import RelationalTable, sample_seed_values
from repro.core.values import AttributeValue
from repro.crawler.engine import CrawlResult
from repro.metrics.registry import MetricsRegistry
from repro.parallel import CrawlGrid, CrawlTask, WorkerSpec, run_crawl_grid
from repro.policies.base import QuerySelector
from repro.runtime.events import EventBus
from repro.server.limits import ResultLimitPolicy
from repro.server.webdb import SimulatedWebDatabase

#: A policy factory: fresh selector per crawl (selectors are single-use).
PolicyFactory = Callable[[], QuerySelector]


@dataclass
class PolicyRun:
    """One policy's averaged measurements over several seeded crawls."""

    policy: str
    results: List[CrawlResult] = field(default_factory=list)

    def mean_cost_at(self, levels: Sequence[float], database_size: int) -> List[Optional[float]]:
        """Mean rounds to each coverage level (None if any run missed it)."""
        out: List[Optional[float]] = []
        for level in levels:
            costs = [
                r.history.rounds_to_coverage(level, database_size)
                for r in self.results
            ]
            if any(c is None for c in costs):
                out.append(None)
            else:
                out.append(sum(costs) / len(costs))
        return out

    def mean_coverage_at(self, checkpoints: Sequence[int], database_size: int) -> List[float]:
        """Mean coverage at each round checkpoint."""
        out = []
        for checkpoint in checkpoints:
            values = [
                r.history.coverage_at_rounds(checkpoint, database_size)
                for r in self.results
            ]
            out.append(sum(values) / len(values))
        return out

    @property
    def mean_final_coverage(self) -> float:
        return sum(r.coverage for r in self.results) / len(self.results)

    @property
    def mean_rounds(self) -> float:
        return sum(r.communication_rounds for r in self.results) / len(self.results)


def group_policy_runs(
    tasks: Sequence[CrawlTask], results: Sequence[CrawlResult]
) -> Dict[str, PolicyRun]:
    """Fold grid results back into per-policy runs, preserving order.

    Results arrive in fixed task order, so each policy's
    :class:`PolicyRun` holds its crawls in seed-set order — exactly the
    list the sequential loop would have built.
    """
    runs: Dict[str, PolicyRun] = {}
    for task, result in zip(tasks, results):
        label = task.label or result.policy
        run = runs.get(label)
        if run is None:
            run = runs[label] = PolicyRun(policy=result.policy)
        run.results.append(result)
    return runs


def _run_grid(
    table: RelationalTable,
    tasks: Tuple[CrawlTask, ...],
    make_selector: Callable[[CrawlTask], QuerySelector],
    *,
    page_size: int,
    limit_policy: Optional[ResultLimitPolicy],
    rng_seed: int,
    crawl_kwargs: dict,
    **run_kwargs,
) -> Dict[str, PolicyRun]:
    """Crawl every task on a fresh server over ``table``, grouped by policy.

    ``run_kwargs`` are :func:`repro.parallel.run_crawl_grid`'s
    (workers, bus, metrics, trace options).
    """
    grid = CrawlGrid(
        make_server=lambda task: SimulatedWebDatabase(
            table, page_size=page_size, limit_policy=limit_policy
        ),
        make_selector=make_selector,
        tasks=tasks,
        rng_seed=rng_seed,
        crawl_kwargs=crawl_kwargs,
    )
    outcome = run_crawl_grid(grid, **run_kwargs)
    return group_policy_runs(tasks, outcome.results)


def run_policy(
    table: RelationalTable,
    policy_factory: PolicyFactory,
    seeds: Sequence[Sequence[AttributeValue]],
    page_size: int = 10,
    limit_policy: Optional[ResultLimitPolicy] = None,
    rng_seed: int = 0,
    workers: WorkerSpec = 1,
    bus: Optional[EventBus] = None,
    metrics: Optional[MetricsRegistry] = None,
    trace: Optional[str] = None,
    trace_timings: bool = True,
    trace_append: bool = False,
    **crawl_kwargs,
) -> PolicyRun:
    """Crawl ``table`` once per seed set and aggregate the results.

    ``seeds`` is a sequence of seed-value lists — one crawl per entry;
    each crawl gets a fresh server (fresh communication log) and a fresh
    selector from the factory.  ``workers`` fans the crawls out over a
    process pool (``None``/``"auto"`` = one per CPU); the parallel run
    is bit-identical to ``workers=1`` because each crawl derives its
    engine seed as ``rng_seed + index`` either way.  ``metrics``
    (a :class:`~repro.metrics.registry.MetricsRegistry`) receives
    per-task telemetry merged in fixed task order.
    """
    tasks = tuple(
        CrawlTask(label="", seed_index=index, seeds=tuple(seed_values))
        for index, seed_values in enumerate(seeds)
    )
    [run] = _run_grid(
        table,
        tasks,
        lambda task: policy_factory(),
        page_size=page_size,
        limit_policy=limit_policy,
        rng_seed=rng_seed,
        crawl_kwargs=crawl_kwargs,
        workers=workers,
        bus=bus,
        metrics=metrics,
        trace=trace,
        trace_timings=trace_timings,
        trace_append=trace_append,
    ).values()
    return run


def run_policy_suite(
    table: RelationalTable,
    policies: Dict[str, PolicyFactory],
    n_seeds: int = 4,
    seed_min_frequency: int = 1,
    page_size: int = 10,
    limit_policy: Optional[ResultLimitPolicy] = None,
    rng_seed: int = 0,
    workers: WorkerSpec = 1,
    bus: Optional[EventBus] = None,
    metrics: Optional[MetricsRegistry] = None,
    trace: Optional[str] = None,
    trace_timings: bool = True,
    trace_append: bool = False,
    **crawl_kwargs,
) -> Dict[str, PolicyRun]:
    """Run several policies over the same seed sets (paired comparison).

    The whole (policy × seed-set) grid fans out together through
    :func:`repro.parallel.run_crawl_grid`, so a 4-policy × 4-seed suite
    keeps up to 16 workers busy; ``workers=1`` is the legacy sequential
    path (same task order, same results).
    """
    rng = random.Random(rng_seed)
    seed_sets = [
        sample_seed_values(table, 1, rng, min_frequency=seed_min_frequency)
        for _ in range(n_seeds)
    ]
    tasks = tuple(
        CrawlTask(label=label, seed_index=index, seeds=tuple(seed_values))
        for label in policies
        for index, seed_values in enumerate(seed_sets)
    )
    return _run_grid(
        table,
        tasks,
        lambda task: policies[task.label](),
        page_size=page_size,
        limit_policy=limit_policy,
        rng_seed=rng_seed,
        crawl_kwargs=crawl_kwargs,
        workers=workers,
        bus=bus,
        metrics=metrics,
        trace=trace,
        trace_timings=trace_timings,
        trace_append=trace_append,
    )
