"""Unit tests for the shared experiment harness."""

import random

import pytest

from repro.experiments import run_policy, run_policy_suite, sample_seed_values
from repro.policies import BreadthFirstSelector, GreedyLinkSelector


class TestSampleSeeds:
    def test_returns_queriable_values(self, books):
        seeds = sample_seed_values(books, 3, random.Random(0))
        assert len(seeds) == 3
        assert all(seed.attribute in books.schema.queriable for seed in seeds)

    def test_min_frequency_respected(self, books):
        seeds = sample_seed_values(books, 2, random.Random(0), min_frequency=3)
        assert all(books.frequency(seed) >= 3 for seed in seeds)

    def test_distinct(self, small_ebay):
        seeds = sample_seed_values(small_ebay, 6, random.Random(1))
        assert len(set(seeds)) == 6

    def test_deterministic(self, small_ebay):
        a = sample_seed_values(small_ebay, 4, random.Random(9))
        b = sample_seed_values(small_ebay, 4, random.Random(9))
        assert a == b

    def test_harness_reexports_the_core_function(self):
        from repro.core import sample_seed_values as core_fn
        from repro.experiments.harness import sample_seed_values as harness_fn

        assert harness_fn is core_fn is sample_seed_values


class TestRunPolicy:
    def test_aggregates_over_seed_sets(self, books):
        seeds = [
            [("publisher", "orbit")],
            [("publisher", "mitp")],
        ]
        run = run_policy(books, BreadthFirstSelector, seeds, page_size=2)
        assert len(run.results) == 2
        assert run.policy == "bfs"
        assert run.mean_final_coverage > 0

    def test_mean_cost_none_when_unreached(self, books):
        # Island seed can never reach 50% coverage.
        run = run_policy(
            books, BreadthFirstSelector, [[("publisher", "lonepress")]], page_size=2
        )
        [cost] = run.mean_cost_at([0.5], len(books))
        assert cost is None

    def test_mean_coverage_at_checkpoints(self, books):
        run = run_policy(
            books, BreadthFirstSelector, [[("publisher", "orbit")]], page_size=2
        )
        coverages = run.mean_coverage_at([1, 10_000], len(books))
        assert coverages[0] <= coverages[1]
        assert coverages[1] == pytest.approx(8 / 9)


class TestRunSuite:
    def test_paired_seeds_across_policies(self, small_ebay):
        runs = run_policy_suite(
            small_ebay,
            {"bfs": BreadthFirstSelector, "gl": GreedyLinkSelector},
            n_seeds=2,
            rng_seed=4,
            target_coverage=0.5,
        )
        assert set(runs) == {"bfs", "gl"}
        assert all(len(run.results) == 2 for run in runs.values())
        # Paired comparison: both policies crawl to the same target.
        for run in runs.values():
            assert all(r.coverage >= 0.5 for r in run.results)
