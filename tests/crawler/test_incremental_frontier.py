"""Differential tests: the incremental frontier must equal full rescoring.

:class:`~repro.crawler.frontier.InternedPriorityFrontier` only rescores
ids marked dirty since the last pop; ``full_rescore_every=1`` is the
escape hatch that rescores every pending id on every flush.  The two
configurations must yield identical pop sequences whenever the scoring
contract holds (scores change only after a ``refresh``), identical
checkpoint payloads, and identical end-to-end crawls — otherwise the
perf knob silently changes which queries the paper's policies issue.
"""

from __future__ import annotations

import pytest

from repro.core import AttributeValue
from repro.core.intern import ValueInterner
from repro.crawler import CrawlerEngine
from repro.crawler.frontier import InternedPriorityFrontier
from repro.policies import (
    GreedyFrequencySelector,
    GreedyLinkSelector,
    MinMaxMutualInformationSelector,
)
from repro.server import SimulatedWebDatabase


def AV(attribute, value):
    return AttributeValue(attribute, value)


class ScoreWorld:
    """A mutable score table driving one frontier under test."""

    def __init__(self, **frontier_kwargs):
        self.interner = ValueInterner()
        self.scores: dict[int, float] = {}
        self.frontier = InternedPriorityFrontier(
            score_id_fn=lambda vid: self.scores.get(vid, 0.0),
            intern_fn=self.interner.intern,
            lookup_fn=self.interner.lookup,
            value_fn=self.interner.value,
            **frontier_kwargs,
        )

    def push(self, name, score):
        vid = self.interner.intern(AV("a", name))
        self.scores[vid] = score
        return self.frontier.push_id(vid)

    def bump(self, name, score):
        """Change a score *and* report it — the documented contract."""
        vid = self.interner.intern(AV("a", name))
        self.scores[vid] = score
        self.frontier.refresh_id(vid)

    def pop(self):
        value = self.frontier.pop()
        return value.value if value is not None else None


def run_script(world: ScoreWorld, script):
    """Apply (op, *args) steps; collect every pop's result."""
    pops = []
    for op, *args in script:
        if op == "push":
            world.push(*args)
        elif op == "bump":
            world.bump(*args)
        elif op == "pop":
            pops.append(world.pop())
    return pops


#: Pushes, score bumps (with refresh), and pops interleaved to cover
#: re-ranking, ties broken by push order, and drain-to-empty.  Bumps
#: only *raise* scores: the shipped signals (GL degree, GF frequency)
#: are monotone non-decreasing, and the frontier's staleness handling
#: is specified for exactly that regime.
SCRIPT = [
    ("push", "a", 1.0),
    ("push", "b", 5.0),
    ("push", "c", 3.0),
    ("pop",),                 # b
    ("bump", "a", 9.0),
    ("push", "d", 3.0),       # ties c at 3.0; c pushed first
    ("pop",),                 # a (bumped above everything)
    ("bump", "c", 3.5),
    ("bump", "d", 6.0),       # overtakes c
    ("push", "e", 2.0),
    ("pop",),                 # d
    ("pop",),                 # c
    ("pop",),                 # e
    ("push", "f", 3.0),
    ("push", "g", 3.0),       # ties f; f pushed first
    ("pop",),                 # f (tie -> earlier push wins)
    ("pop",),                 # g
    ("pop",),                 # None (empty)
]

EXPECTED = ["b", "a", "d", "c", "e", "f", "g", None]


@pytest.mark.parametrize(
    "kwargs",
    [
        {},                                      # incremental (default)
        {"full_rescore_every": 1},               # rescore everything, always
        {"full_rescore_every": 3},               # periodic escape hatch
    ],
)
def test_pop_sequence_is_config_independent(kwargs):
    assert run_script(ScoreWorld(**kwargs), SCRIPT) == EXPECTED


def test_stats_count_dirty_and_rescored():
    world = ScoreWorld()
    run_script(world, SCRIPT)
    stats = world.frontier.stats
    # 3 bumps marked dirty; the incremental path rescores only those.
    assert stats["dirty_total"] == 3
    assert stats["rescored_total"] == 3
    # Only the two pops that followed bumps had work to flush.
    assert stats["flushes"] == 2


def test_pop_without_dirty_ids_skips_the_flush():
    """A pop with nothing marked dirty does no flush work and counts none."""
    world = ScoreWorld()
    for name, score in (("a", 1.0), ("b", 3.0), ("c", 2.0)):
        world.push(name, score)
    assert [world.pop(), world.pop(), world.pop()] == ["b", "c", "a"]
    assert world.frontier.stats == {
        "dirty_total": 0,
        "rescored_total": 0,
        "flushes": 0,
    }


def test_full_rescore_revisits_clean_ids():
    world = ScoreWorld(full_rescore_every=1)
    run_script(world, SCRIPT)
    stats = world.frontier.stats
    assert stats["dirty_total"] == 3
    # Every flush rescores the whole pending set, so the rescored count
    # must strictly exceed the dirty count on this script.
    assert stats["rescored_total"] > stats["dirty_total"]


def test_refresh_of_unknown_or_popped_id_is_noop():
    world = ScoreWorld()
    world.push("a", 1.0)
    assert world.pop() == "a"
    world.bump("a", 99.0)           # already popped — must stay popped
    world.frontier.refresh_id(777)  # never interned/pushed
    assert world.pop() is None
    assert world.frontier.stats["dirty_total"] == 0


def test_duplicate_push_is_rejected():
    world = ScoreWorld()
    assert world.push("a", 1.0)
    assert not world.push("a", 50.0)
    assert world.pop() == "a"
    assert world.pop() is None


def test_unchanged_score_refresh_pushes_nothing():
    """Rescoring to the same value must not grow the heap (perf invariant)."""
    world = ScoreWorld()
    for name in "abc":
        world.push(name, 2.0)
    for name in "abc":
        world.frontier.refresh_id(world.interner.intern(AV("a", name)))
    world.pop()
    assert len(world.frontier._heap) == 2  # no duplicate entries appended


def test_unannounced_growth_pops_at_the_rank_of_its_last_push():
    """Outside the refresh contract a value keeps its pushed rank."""
    world = ScoreWorld()
    for name, score in (("a", 1.0), ("b", 2.0), ("c", 3.0)):
        world.push(name, score)
    for name, score in (("a", 10.0), ("c", 20.0)):  # no refresh_id
        world.scores[world.interner.intern(AV("a", name))] = score
    assert [world.pop() for _ in range(3)] == ["c", "b", "a"]
    assert world.frontier.state_dict()["container"]["tick"] == 3


@pytest.mark.parametrize("cut", [3, 6, 9, 12])
def test_checkpoint_round_trip_mid_script(cut):
    """state_dict/load_state at any point must not perturb later pops."""
    straight = run_script(ScoreWorld(), SCRIPT)

    world = ScoreWorld()
    prefix_pops = run_script(world, SCRIPT[:cut])
    state = world.frontier.state_dict()

    resumed = ScoreWorld()
    resumed.frontier.load_state(state)
    # Ids are re-assigned in load order — carry the scores over by
    # *value*, the way a real resume re-derives them from the local db.
    resumed.scores = {
        resumed.interner.intern(world.interner.value(vid)): score
        for vid, score in world.scores.items()
    }
    suffix_pops = run_script(resumed, SCRIPT[cut:])
    assert prefix_pops + suffix_pops == straight


def test_checkpoint_is_observation_free():
    """Taking a snapshot mid-stream must not change the pop sequence."""
    observed = ScoreWorld()
    pops = []
    for index, step in enumerate(SCRIPT):
        pops.extend(run_script(observed, [step]))
        if index % 2 == 0:
            observed.frontier.state_dict()  # snapshot and discard
    assert pops == EXPECTED


def crawl_pair(table, selector):
    server = SimulatedWebDatabase(table, page_size=10)
    engine = CrawlerEngine(server, selector, seed=11)
    seed_value = next(
        value
        for value in table.distinct_values("seller")
        if table.frequency(value) >= 3
    )
    result = engine.crawl([seed_value], max_queries=45)
    return result, list(engine.context.lqueried)


class TestCrawlLevelIdentity:
    """Full crawls: every frontier configuration issues the same queries."""

    @pytest.mark.parametrize(
        "factory", [GreedyLinkSelector, GreedyFrequencySelector]
    )
    def test_incremental_equals_full_rescore(self, small_ebay, factory):
        base, base_q = crawl_pair(small_ebay, factory())
        full, full_q = crawl_pair(small_ebay, factory(full_rescore_every=1))
        assert base_q == full_q
        assert base == full

    def test_frontier_stats_surface(self, small_ebay):
        selector = GreedyLinkSelector()
        crawl_pair(small_ebay, selector)
        stats = selector.frontier_stats()
        assert stats is not None
        assert stats["rescored_total"] >= stats["dirty_total"] > 0
        assert stats["pending"] >= 0

    def test_mmmi_has_no_interned_frontier_stats(self, small_ebay):
        """MMMI keeps its own batch frontier — no stats, and the
        telemetry sampler must treat that as 'nothing to record'."""
        selector = MinMaxMutualInformationSelector()
        crawl_pair(selector=selector, table=small_ebay)
        assert not hasattr(selector, "frontier_stats") or (
            selector.frontier_stats() is None
        )
