"""Cross-module invariants, property-tested on randomized small worlds.

These tie the theory to the implementation: whatever the policy, a
crawl must respect the AVG reachability ceiling, the Definition 2.3
cost identity, and determinism under fixed seeds.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RelationalTable, Schema
from repro.crawler import CrawlerEngine
from repro.graph import build_avg_from_table, convergence_coverage, reachable_records
from repro.policies import (
    BreadthFirstSelector,
    DepthFirstSelector,
    GreedyLinkSelector,
    RandomSelector,
)
from repro.server import SimulatedWebDatabase

schema = Schema.of("a", "b", "c")

world_strategy = st.lists(
    st.tuples(
        st.sampled_from(["a1", "a2", "a3", "a4"]),
        st.sampled_from(["b1", "b2", "b3", "b4", "b5"]),
        st.sampled_from(["c1", "c2", "c3"]),
    ),
    min_size=2,
    max_size=25,
)

ALL_POLICIES = (
    BreadthFirstSelector,
    DepthFirstSelector,
    RandomSelector,
    GreedyLinkSelector,
)


def build_world(triples):
    table = RelationalTable(schema, name="world")
    table.insert_rows([{"a": a, "b": b, "c": c} for a, b, c in triples])
    return table


def seed_of(table):
    return table.get(table.record_ids()[0]).attribute_values()[0]


@settings(max_examples=25, deadline=None)
@given(world_strategy)
def test_full_crawl_harvests_exactly_the_reachable_component(triples):
    """Every policy's exhaustive crawl == the seed's AVG component."""
    table = build_world(triples)
    graph = build_avg_from_table(table, queriable_only=True)
    seed = seed_of(table)
    expected = {record.record_id for record in reachable_records(list(table), graph, [seed])}
    for factory in ALL_POLICIES:
        server = SimulatedWebDatabase(table, page_size=3)
        engine = CrawlerEngine(server, factory(), seed=1)
        engine.crawl([seed])
        assert set(engine.local_db.record_ids()) == expected, factory.__name__


@settings(max_examples=25, deadline=None)
@given(world_strategy)
def test_coverage_never_exceeds_convergence_ceiling(triples):
    table = build_world(triples)
    graph = build_avg_from_table(table, queriable_only=True)
    seed = seed_of(table)
    ceiling = convergence_coverage(list(table), graph, [seed])
    server = SimulatedWebDatabase(table, page_size=3)
    result = CrawlerEngine(server, GreedyLinkSelector(), seed=0).crawl([seed])
    assert result.coverage <= ceiling + 1e-9


@settings(max_examples=20, deadline=None)
@given(world_strategy, st.integers(min_value=1, max_value=6))
def test_definition_2_3_cost_identity(triples, page_size):
    """Total rounds == Σ over issued queries of max(ceil(num/k), 1)."""
    table = build_world(triples)
    server = SimulatedWebDatabase(table, page_size=page_size)
    engine = CrawlerEngine(server, BreadthFirstSelector(), seed=0, keep_outcomes=True)
    result = engine.crawl([seed_of(table)])
    expected_rounds = sum(
        max(math.ceil(server.truth_count(outcome.query) / page_size), 1)
        for outcome in result.outcomes
    )
    assert result.communication_rounds == expected_rounds


@settings(max_examples=15, deadline=None)
@given(world_strategy, st.integers(0, 100))
def test_crawls_deterministic_under_seed(triples, seed):
    table = build_world(triples)

    def run():
        server = SimulatedWebDatabase(table, page_size=3)
        engine = CrawlerEngine(server, RandomSelector(), seed=seed)
        result = engine.crawl([seed_of(table)])
        return (
            result.communication_rounds,
            result.queries_issued,
            tuple(engine.local_db.record_ids()),
        )

    assert run() == run()


@settings(max_examples=15, deadline=None)
@given(world_strategy)
def test_history_matches_result_totals(triples):
    table = build_world(triples)
    server = SimulatedWebDatabase(table, page_size=3)
    result = CrawlerEngine(server, DepthFirstSelector(), seed=0).crawl(
        [seed_of(table)]
    )
    assert result.history.final_rounds == result.communication_rounds
    assert result.history.final_records == result.records_harvested
    rounds = [point.rounds for point in result.history.points]
    records = [point.records for point in result.history.points]
    assert rounds == sorted(rounds)
    assert records == sorted(records)


@settings(max_examples=10, deadline=None)
@given(world_strategy)
def test_local_statistics_match_ground_truth_after_full_crawl(triples):
    """After harvesting everything reachable, DB_local's statistics must
    agree with the true table restricted to the harvested records."""
    table = build_world(triples)
    server = SimulatedWebDatabase(table, page_size=3)
    engine = CrawlerEngine(server, BreadthFirstSelector(), seed=0)
    engine.crawl([seed_of(table)])
    harvested = set(engine.local_db.record_ids())
    for value in engine.local_db.distinct_values():
        true_ids = set(table.match_equality(value.attribute, value.value))
        assert engine.local_db.matching_ids(value) == true_ids & harvested
