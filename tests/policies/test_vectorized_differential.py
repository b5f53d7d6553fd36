"""Differential tests: the interned scoring paths must match the reference.

GL, GF and MMMI score candidates over the interned
:class:`~repro.crawler.localdb.LocalDatabase` — GL and GF through the
incremental :class:`~repro.crawler.frontier.InternedPriorityFrontier`,
MMMI ``max`` through the numpy kernel in
:mod:`repro.policies.vectorized`.  Every selection decision they make
must be *identical* to the pre-interning value-keyed paths that
:class:`~repro.crawler.reference.ReferenceLocalDatabase` still runs, or
accelerated runs stop being reproductions of the paper's sequential
crawls.  These tests pin that contract two ways:

- **Crawl-level**: the same crawl on both databases issues the same
  queries in the same order, harvests the same records, and yields an
  equal :class:`~repro.crawler.engine.CrawlResult` (rounds, per-step
  history, coverage) — for GL, GF, MMMI ``max`` and MMMI ``mean``.
- **Kernel-level**: :func:`mmmi_best_ratios` reproduces the scalar
  arithmetic exactly — including the zero frequency, empty-queried-set,
  no-co-occurrence, and id-past-column edges where the guards (not the
  arithmetic) decide the answer.
"""

import math
import random

import pytest

from repro.core import AttributeValue, sample_seed_values
from repro.crawler import CrawlerEngine, LocalDatabase, ReferenceLocalDatabase
from repro.datasets.registry import load_dataset
from repro.policies import (
    GreedyFrequencySelector,
    GreedyLinkSelector,
    MinMaxMutualInformationSelector,
)
from repro.policies import vectorized
from repro.server import SimulatedWebDatabase
from tests.conftest import make_record


def AV(attribute, value):
    return AttributeValue(attribute, value)


#: The four scoring configurations, each crawled on both databases.
POLICIES = {
    "gl": GreedyLinkSelector,
    "gf": GreedyFrequencySelector,
    "mmmi-max": lambda: MinMaxMutualInformationSelector(batch_size=5),
    "mmmi-mean": lambda: MinMaxMutualInformationSelector(
        batch_size=5, aggregate="mean"
    ),
}


def ebay_seed(table):
    return next(
        value
        for value in table.distinct_values("seller")
        if table.frequency(value) >= 3
    )


def crawl_signature(table, selector, seeds, reference=False, **stop):
    """One deterministic crawl: its result, query sequence and records.

    ``reference=True`` crawls on the pre-interning
    :class:`ReferenceLocalDatabase`, where every selector falls back to
    its value-keyed scalar path.
    """
    server = SimulatedWebDatabase(table, page_size=10)
    local_db = (
        ReferenceLocalDatabase(
            track_cooccurrence=selector.requires_cooccurrence
        )
        if reference
        else None  # the engine builds the interned LocalDatabase
    )
    engine = CrawlerEngine(server, selector, seed=11, local_db=local_db)
    result = engine.crawl(seeds, **stop)
    return result, list(engine.context.lqueried), engine.local_db.record_ids()


def assert_matches_reference(table, factory, seeds):
    """Same queries, records, rounds and per-step history on both DBs."""
    fast, fast_q, fast_records = crawl_signature(
        table, factory(), seeds, target_coverage=0.95
    )
    slow, slow_q, slow_records = crawl_signature(
        table, factory(), seeds, reference=True, target_coverage=0.95
    )
    assert fast.coverage >= 0.95
    assert fast_q == slow_q
    assert fast_records == slow_records
    assert fast == slow


@pytest.fixture(scope="module", params=["dblp", "imdb", "acm"])
def generated_source(request):
    """A small generated source of each shape, with a sampled seed."""
    table = load_dataset(request.param, 1500, 3)
    return table, sample_seed_values(
        table, 1, random.Random(3), min_frequency=2
    )


class TestCrawlLevelIdentity:
    @pytest.mark.parametrize(
        "factory", [GreedyLinkSelector, GreedyFrequencySelector]
    )
    def test_priority_selectors_match_scalar(self, small_ebay, factory):
        assert_matches_reference(small_ebay, factory, [ebay_seed(small_ebay)])

    def test_mmmi_matches_scalar(self, small_ebay):
        assert_matches_reference(
            small_ebay, MinMaxMutualInformationSelector, [ebay_seed(small_ebay)]
        )

    def test_mmmi_small_batch_matches_scalar(self, small_ebay):
        """Frequent recomputes stress the queried-major scatter path."""
        assert_matches_reference(
            small_ebay, POLICIES["mmmi-max"], [ebay_seed(small_ebay)]
        )

    def test_mmmi_mean_matches_scalar(self, small_ebay):
        """``mean`` runs the interned scalar loop, not the kernel."""
        assert_matches_reference(
            small_ebay, POLICIES["mmmi-mean"], [ebay_seed(small_ebay)]
        )


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_generated_sources_match_scalar(generated_source, policy):
    """Multi-valued co-author and cast lists: MMMI's own regime."""
    table, seeds = generated_source
    assert_matches_reference(table, POLICIES[policy], seeds)


class TestVectorizedValidation:
    def test_mean_aggregate_auto_stays_scalar(self, small_ebay, monkeypatch):
        """Only ``max`` may reach the kernel; ``mean`` never calls it."""

        def forbidden(*_args, **_kwargs):
            raise AssertionError("mean aggregate reached the max kernel")

        monkeypatch.setattr(vectorized, "mmmi_best_ratios", forbidden)
        result, _, _ = crawl_signature(
            small_ebay,
            MinMaxMutualInformationSelector(aggregate="mean"),
            [ebay_seed(small_ebay)],
            max_queries=20,
        )
        assert result.queries_issued > 0


def correlated_local():
    """A tiny tracked database with known co-occurrence structure."""
    local = LocalDatabase(track_cooccurrence=True)
    records = [
        make_record(1, a="lead", b="paired", c="x"),
        make_record(2, a="lead", b="paired", c="y"),
        make_record(3, a="lead", b="paired", c="x"),
        make_record(4, a="lead2", b="paired", c="y"),
        make_record(5, a="lead2", b="zzz", c="x"),
        make_record(6, a="other", b="free", c="y"),
        make_record(7, a="other2", b="free", c="x"),
    ]
    for record in records:
        local.add(record)
    return local


class TestMMMIKernelEdges:
    def scalar_bits(self, local, queried_ids, cand_ids):
        """The scalar reference: exp of dependency_score_ids per candidate."""
        out = []
        for vid in cand_ids:
            score = local.dependency_score_ids(vid, set(queried_ids), use_max=True)
            out.append(0.0 if score == -math.inf else math.exp(score))
        return out

    def test_matches_scalar_log_bit_for_bit(self):
        local = correlated_local()
        queried = [
            local.value_id(AV("a", "lead")),
            local.value_id(AV("a", "lead2")),
        ]
        cands = [
            local.value_id(AV("b", "paired")),
            local.value_id(AV("b", "free")),
            local.value_id(AV("b", "zzz")),
            local.value_id(AV("c", "x")),
        ]
        best = vectorized.mmmi_best_ratios(local, queried, cands)
        for vid, ratio in zip(cands, best):
            scalar = local.dependency_score_ids(vid, set(queried), use_max=True)
            if ratio == 0.0:
                assert scalar == -math.inf
            else:
                # Same bits: the scalar path is log(joint*n/(fu*fv)) over
                # ints; the kernel maximizes the exact ratios first.
                assert math.log(ratio) == scalar

    def test_no_cooccurrence_scores_zero(self):
        local = correlated_local()
        queried = [local.value_id(AV("a", "lead"))]
        cands = [local.value_id(AV("b", "free"))]
        assert vectorized.mmmi_best_ratios(local, queried, cands) == [0.0]

    def test_empty_queried_set(self):
        local = correlated_local()
        cands = [local.value_id(AV("b", "paired"))]
        assert vectorized.mmmi_best_ratios(local, [], cands) == [0.0]

    def test_empty_candidates(self):
        local = correlated_local()
        queried = [local.value_id(AV("a", "lead"))]
        assert vectorized.mmmi_best_ratios(local, queried, []) == []

    def test_empty_database(self):
        local = LocalDatabase(track_cooccurrence=True)
        assert vectorized.mmmi_best_ratios(local, [0], [1]) == [0.0]

    def test_queried_id_past_column_end_is_skipped(self):
        local = correlated_local()
        queried = [local.value_id(AV("a", "lead")), 10_000]
        cands = [local.value_id(AV("b", "paired"))]
        with_garbage = vectorized.mmmi_best_ratios(local, queried, cands)
        clean = vectorized.mmmi_best_ratios(local, queried[:1], cands)
        assert with_garbage == clean

    def test_interned_but_unseen_query_is_harmless(self):
        """A vid interned without statistics behaves like frequency 0."""
        local = correlated_local()
        ghost = local.intern_value(AV("a", "never-harvested"))
        queried = [local.value_id(AV("a", "lead")), ghost]
        cands = [local.value_id(AV("b", "paired"))]
        assert vectorized.mmmi_best_ratios(local, queried, cands) == (
            vectorized.mmmi_best_ratios(local, queried[:1], cands)
        )
