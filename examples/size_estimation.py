#!/usr/bin/env python
"""Estimating a hidden database's size by overlap analysis.

Before crawling a source in earnest you often want to know how big it
is — e.g. to budget communication rounds.  Section 5 of the paper
estimates the Amazon DVD catalogue's size by running six independent
limited crawls, applying capture–recapture to every pair of harvested
record sets, and t-testing the 15 estimates.  Here the store is
simulated so the true size is known, making the estimator's bias
visible: crawl samples over-represent the popular, well-connected
records, so the estimate tracks the *crawlable* universe.

Run:  python examples/size_estimation.py
"""

from repro.crawler import CrawlerEngine
from repro.datasets import MovieUniverse, generate_amazon_dvd
from repro.estimation import (
    pairwise_estimates,
    t_confidence_interval,
    upper_confidence_bound,
)
from repro.policies import RandomSelector
from repro.server import SimulatedWebDatabase


def main() -> None:
    universe = MovieUniverse(n_movies=4000, seed=5, obscure_fraction=0.1)
    store = generate_amazon_dvd(universe, seed=6)
    print(f"true (hidden) store size: {len(store):,} records")

    # Six independent limited crawls from different random seeds.
    samples = []
    for crawl_index in range(6):
        server = SimulatedWebDatabase(store, page_size=10)
        engine = CrawlerEngine(server, RandomSelector(), seed=100 + crawl_index)
        seed_value = store.get(
            store.record_ids()[crawl_index * 37 % len(store)]
        ).attribute_values()[0]
        engine.crawl([seed_value], max_rounds=400)
        sample = frozenset(engine.local_db.record_ids())
        samples.append(sample)
        print(f"  crawl {crawl_index + 1}: harvested {len(sample):,} records")

    # Capture–recapture over all C(6,2) = 15 pairs, then a t bound.
    estimates = pairwise_estimates(samples)
    interval = t_confidence_interval(estimates, confidence=0.9)
    bound = upper_confidence_bound(estimates, confidence=0.9)
    print(f"\n{len(estimates)} pairwise Lincoln-Petersen estimates")
    print(f"mean estimate: {interval.mean:,.0f} records")
    print(f"90% interval:  [{interval.lower:,.0f}, {interval.upper:,.0f}]")
    print(f"90% one-sided upper bound: {bound:,.0f}")
    print("(paper's statement had this form: 'with 90% confidence, the")
    print(f" database contains less than {bound:,.0f} records')")


if __name__ == "__main__":
    main()
