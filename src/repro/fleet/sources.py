"""Deterministic synthetic fleets of structured web sources.

The paper surveys 480 structured sources; a fleet experiment needs
hundreds-to-thousands of *heterogeneous* simulated ones.  A fleet here
is a tuple of :class:`SourceSpec`\\ s — pure data, cheap to pickle, and
a deterministic function of ``(n_sources, seed, scale)`` — from which
any process can rebuild the exact same engines.  That split (spec plans
in the parent, engines built inside whichever worker owns the shard) is
what lets the fleet driver fan sources out over processes and still be
bit-identical at any worker count: nothing engine-sized ever crosses a
process boundary.

Heterogeneity axes, all drawn from one seeded RNG in spec order:

- **domain** — the four controlled datasets (ebay/imdb/dblp/acm) cycle
  so every fleet slice mixes schemas and value distributions;
- **size** — heavy-tailed record counts via :func:`pareto_int`,
  mirroring the survey's mix of boutique stores and big aggregators;
- **page size** — half / base / double the configured ``k`` (the paper
  observes k from 10 to 100 across real sources), so sources differ in
  *records per communication round* even while fresh — the signal a
  marginal-rate allocator exploits and a fair-share baseline ignores;
- **policy** — each source is crawled by one of GL / GF / MMMI / DM,
  so the fleet scheduler allocates across engines with genuinely
  different marginal-harvest profiles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.errors import CrawlError
from repro.core.table import sample_seed_values
from repro.core.values import AttributeValue
from repro.crawler.abortion import PageCapAbort
from repro.crawler.engine import CrawlerEngine
from repro.datasets.registry import dataset_names, load_dataset
from repro.datasets.zipf import pareto_int
from repro.domain.table import build_domain_table
from repro.policies.domain import DomainKnowledgeSelector
from repro.policies.greedy import GreedyFrequencySelector, GreedyLinkSelector
from repro.policies.mmmi import MinMaxMutualInformationSelector
from repro.server.webdb import SimulatedWebDatabase

#: Crawl policies a fleet source may run, in assignment-cycle order.
FLEET_POLICIES = ("gl", "gf", "mmmi", "dm")

#: Smallest source we generate: below this, frequency-2 seed values
#: get scarce and a source can be born unseedable.
MIN_SOURCE_RECORDS = 24


@dataclass(frozen=True)
class SourceSpec:
    """Everything needed to rebuild one fleet source, anywhere.

    ``seed`` drives the dataset generator, the engine RNG, and the
    seed-value draw, so a spec is a complete recipe: two processes
    holding the same spec build byte-equivalent sources.
    """

    name: str
    dataset: str
    records: int
    seed: int
    policy: str
    page_size: int = 10


def plan_fleet(
    n_sources: int,
    seed: int = 0,
    scale: float = 1.0,
    page_size: int = 10,
) -> Tuple[SourceSpec, ...]:
    """Lay out a deterministic heterogeneous fleet.

    ``scale`` multiplies source sizes (CI smoke runs at 0.25), never
    the count — a 500-source experiment stays 500 sources, each
    smaller.  Datasets and policies cycle (stratified, so small fleets
    are still mixed); sizes are heavy-tailed draws from one RNG seeded
    with ``seed``, consumed in spec order.
    """
    if n_sources < 1:
        raise CrawlError(f"n_sources must be >= 1, got {n_sources}")
    if scale <= 0:
        raise CrawlError(f"scale must be > 0, got {scale}")
    rng = random.Random(seed)
    datasets = dataset_names()
    mean_records = max(MIN_SOURCE_RECORDS + 1.0, 140.0 * scale)
    # k spans an order of magnitude across real sources (10..100 in the
    # paper's survey); the spread is what gives per-round productivity
    # its variance.
    page_sizes = (
        max(page_size // 2, 1),
        page_size,
        page_size * 2,
        page_size * 5,
    )
    specs: List[SourceSpec] = []
    for index in range(n_sources):
        dataset = datasets[index % len(datasets)]
        policy = FLEET_POLICIES[(index // len(datasets)) % len(FLEET_POLICIES)]
        records = pareto_int(rng, MIN_SOURCE_RECORDS, mean_records)
        k = page_sizes[rng.randrange(len(page_sizes))]
        specs.append(
            SourceSpec(
                name=f"s{index:04d}-{dataset}-{policy}",
                dataset=dataset,
                records=records,
                seed=seed * 1_000_003 + index,
                policy=policy,
                page_size=k,
            )
        )
    return tuple(specs)


def _make_selector(spec: SourceSpec):
    if spec.policy == "gl":
        return GreedyLinkSelector()
    if spec.policy == "gf":
        return GreedyFrequencySelector()
    if spec.policy == "mmmi":
        return MinMaxMutualInformationSelector()
    if spec.policy == "dm":
        # The domain sample is a sibling draw from the same generator
        # family — a different seed, roughly half the size — standing in
        # for the paper's "sample database from the same domain".
        sample = load_dataset(
            spec.dataset,
            max(spec.records // 2, MIN_SOURCE_RECORDS),
            spec.seed + 7919,
        )
        return DomainKnowledgeSelector(build_domain_table(sample))
    raise CrawlError(
        f"unknown fleet policy {spec.policy!r}; expected one of {FLEET_POLICIES}"
    )


def build_source(
    spec: SourceSpec, max_step_rounds: Optional[int] = None
) -> CrawlerEngine:
    """Instantiate a spec: generated table, simulated server, engine.

    With ``max_step_rounds`` set the engine carries a
    :class:`PageCapAbort` and no retries, so one engine step charges at
    most that many communication rounds — the hard per-step bound the
    fleet scheduler's budget guarantee is built on.
    """
    table = load_dataset(spec.dataset, spec.records, spec.seed)
    server = SimulatedWebDatabase(table, page_size=spec.page_size)
    abortion = (
        PageCapAbort(max_pages=max_step_rounds)
        if max_step_rounds is not None
        else None
    )
    return CrawlerEngine(
        server,
        _make_selector(spec),
        seed=spec.seed,
        abortion=abortion,
        max_retries=0,
    )


def source_seeds(
    spec: SourceSpec, engine: CrawlerEngine
) -> List[AttributeValue]:
    """Draw the source's seed value the way the paper's harness does.

    Prefers a frequency-≥2 value (a frequency-1 seed may be an island
    the relational crawler can never leave); tiny heavy-tail sources
    may not have one, in which case any queriable value will do.
    """
    table = engine.server.table
    rng = random.Random(spec.seed + 1)
    try:
        return sample_seed_values(table, 1, rng, min_frequency=2)
    except ValueError:
        return sample_seed_values(table, 1, random.Random(spec.seed + 1))


def build_fleet(
    specs: Sequence[SourceSpec], max_step_rounds: Optional[int] = None
) -> Tuple[Dict[str, CrawlerEngine], Dict[str, list]]:
    """Build engines + seed values for a slice of the fleet plan."""
    engines: Dict[str, CrawlerEngine] = {}
    seeds: Dict[str, list] = {}
    for spec in specs:
        engine = build_source(spec, max_step_rounds=max_step_rounds)
        engines[spec.name] = engine
        seeds[spec.name] = source_seeds(spec, engine)
    return engines, seeds
