"""Shared scaffold for the durable-runtime tests.

One deliberately hostile source configuration is reused across the
crash/resume tests: a :class:`FlakyServer` (10% transient failures)
over a 400-record ebay table, with retries and *charged* exponential
backoff.  That way the engine RNG, the retry-jitter RNG, and the
server's failure RNG all advance during a crawl — and all participate
in the bit-identical-resume assertions.
"""

from __future__ import annotations

import random

import pytest

from repro.crawler.engine import CrawlerEngine
from repro.datasets.ebay import generate_ebay
from repro.domain import build_domain_table
from repro.experiments.harness import sample_seed_values
from repro.policies import (
    DomainKnowledgeSelector,
    GreedyLinkSelector,
    MinMaxMutualInformationSelector,
)
from repro.server.flaky import ExponentialBackoff, FlakyServer
from repro.server.webdb import SimulatedWebDatabase

ENGINE_SEED = 5
SERVER_SEED = 7
SEEDS_SEED = 3
FAILURE_RATE = 0.1
MAX_RETRIES = 3
MAX_QUERIES = 50
CHECKPOINT_EVERY = 10


def make_backoff() -> ExponentialBackoff:
    """Charged backoff: every simulated wait costs communication rounds."""
    return ExponentialBackoff.charging(10.0)


def make_flaky_server(table) -> FlakyServer:
    return FlakyServer(
        SimulatedWebDatabase(table),
        failure_rate=FAILURE_RATE,
        seed=SERVER_SEED,
    )


def make_engine(table, selector, bus=None, local_db=None) -> CrawlerEngine:
    return CrawlerEngine(
        make_flaky_server(table),
        selector,
        seed=ENGINE_SEED,
        max_retries=MAX_RETRIES,
        backoff=make_backoff(),
        bus=bus,
        local_db=local_db,
    )


def seed_values(table):
    return sample_seed_values(table, 1, random.Random(SEEDS_SEED), min_frequency=2)


#: The three headline policies the acceptance criteria name (GL, MMMI, DM).
FLAKY_POLICIES = {
    "greedy-link": lambda deps: GreedyLinkSelector(),
    "mmmi": lambda deps: MinMaxMutualInformationSelector(batch_size=5),
    "dm": lambda deps: DomainKnowledgeSelector(deps["domain_table"]),
}


@pytest.fixture(scope="session")
def flaky_table():
    return generate_ebay(n_records=400, seed=1)


@pytest.fixture(scope="session")
def ebay_domain_table():
    """A DM domain table built from a disjoint ebay sample."""
    return build_domain_table(generate_ebay(n_records=300, seed=9))
