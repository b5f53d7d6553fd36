"""Section 5's Amazon-size estimation by overlap analysis.

The paper runs 6 independent crawls of 5,000 interactions each from
random seeds, forms all C(6,2) = 15 pairwise capture–recapture
estimates over the harvested record sets, and applies a t-test to state
"with 90% confidence, the Amazon DVD product database contains less
than 37,000 data records".  This driver does the same against the
simulated store — where, unlike the paper, the true size is known, so
the benchmark can check the confidence machinery against ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.crawler.engine import CrawlerEngine
from repro.estimation.multisample import all_estimates
from repro.estimation.overlap import pairwise_estimates
from repro.estimation.ttest import (
    ConfidenceInterval,
    t_confidence_interval,
    upper_confidence_bound,
)
from repro.experiments.amazon import AmazonSetup, build_amazon_setup
from repro.experiments.report import render_table
from repro.policies.naive import RandomSelector


@dataclass
class SizeEstimationResult:
    true_size: int
    n_crawls: int
    interactions_per_crawl: int
    sample_sizes: List[int]
    union_size: int
    estimates: List[float]
    interval: ConfidenceInterval
    upper_bound: float
    confidence: float
    #: Extension beyond the paper: joint multi-sample estimators
    #: (Schnabel, Chao1, first-order jackknife) on the same samples.
    alternative_estimates: Dict[str, float] = None  # type: ignore[assignment]

    @property
    def relative_error(self) -> float:
        """``(mean estimate − true size) / true size``.

        Expected to be mildly negative: capture–recapture assumes
        uniform independent samples, while query-based crawls are
        biased toward the popular, well-connected region and cannot see
        data islands at all — so the estimator really measures the
        *crawlable* universe.  The paper's "< 37,000 with 90%
        confidence" statement carries the same bias; here the ground
        truth is known, so the bias is visible instead of hidden.
        """
        return (self.interval.mean - self.true_size) / self.true_size

    @property
    def upper_bound_holds(self) -> bool:
        """Whether the one-sided bound brackets the true size."""
        return self.true_size <= self.upper_bound

    def render(self) -> str:
        rows = [
            ["true size", self.true_size],
            ["crawls x interactions", f"{self.n_crawls} x {self.interactions_per_crawl}"],
            ["records seen across crawls", self.union_size],
            ["pairwise estimates", len(self.estimates)],
            ["mean estimate", round(self.interval.mean)],
            ["relative error", f"{self.relative_error:+.1%}"],
            [f"{self.confidence:.0%} two-sided interval",
             f"[{self.interval.lower:,.0f}, {self.interval.upper:,.0f}]"],
            [f"{self.confidence:.0%} upper bound", round(self.upper_bound)],
            ["bound >= true size", self.upper_bound_holds],
        ]
        for name, estimate in (self.alternative_estimates or {}).items():
            rows.append([f"{name} (multi-sample, extension)", round(estimate)])
        return render_table(
            ["quantity", "value"],
            rows,
            title="Size estimation — overlap analysis + t bound (Section 5)",
        )


def run_size_estimation(
    setup: Optional[AmazonSetup] = None,
    n_crawls: int = 6,
    interactions: Optional[int] = None,
    confidence: float = 0.9,
    rng_seed: int = 0,
) -> SizeEstimationResult:
    """Regenerate the overlap-analysis experiment.

    ``interactions`` defaults to the paper's 5,000 scaled by store size.
    Crawls use random selection from random seeds — independence between
    samples is what capture–recapture needs, and the paper's six
    "independent crawls" from random seed values serve the same purpose.
    """
    setup = setup or build_amazon_setup()
    store_size = len(setup.store)
    if interactions is None:
        interactions = max(int(5000 * store_size / 37_000), 50)
    seed_sets = setup.sample_seeds(n_crawls, rng_seed=rng_seed + 101)
    samples = []
    for index, seeds in enumerate(seed_sets):
        server = setup.make_server()
        engine = CrawlerEngine(server, RandomSelector(), seed=rng_seed + index)
        engine.crawl(seeds, max_rounds=interactions)
        samples.append(frozenset(engine.local_db.record_ids()))
    estimates = pairwise_estimates(samples)
    interval = t_confidence_interval(estimates, confidence=confidence)
    bound = upper_confidence_bound(estimates, confidence=confidence)
    union: frozenset = frozenset().union(*samples)
    return SizeEstimationResult(
        true_size=store_size,
        n_crawls=n_crawls,
        interactions_per_crawl=interactions,
        sample_sizes=[len(s) for s in samples],
        union_size=len(union),
        estimates=estimates,
        interval=interval,
        upper_bound=bound,
        confidence=confidence,
        alternative_estimates=all_estimates(samples),
    )
