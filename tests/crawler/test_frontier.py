"""Unit and property tests for frontier (L_to-query) data structures."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AttributeValue
from repro.crawler import (
    FifoFrontier,
    LifoFrontier,
    PriorityFrontier,
    RandomFrontier,
)


def AV(value):
    return AttributeValue("a", value)


class TestFifo:
    def test_discovery_order(self):
        frontier = FifoFrontier()
        frontier.push_all([AV("x"), AV("y"), AV("z")])
        assert [frontier.pop() for _ in range(3)] == [AV("x"), AV("y"), AV("z")]

    def test_empty_pop_none(self):
        assert FifoFrontier().pop() is None

    def test_no_duplicates(self):
        frontier = FifoFrontier()
        assert frontier.push(AV("x"))
        assert not frontier.push(AV("x"))
        assert len(frontier) == 1

    def test_popped_value_cannot_reenter(self):
        frontier = FifoFrontier()
        frontier.push(AV("x"))
        frontier.pop()
        assert not frontier.push(AV("x"))
        assert frontier.pop() is None

    def test_contains_and_bool(self):
        frontier = FifoFrontier()
        assert not frontier
        frontier.push(AV("x"))
        assert frontier
        assert AV("x") in frontier


class TestLifo:
    def test_reverse_order(self):
        frontier = LifoFrontier()
        frontier.push_all([AV("x"), AV("y"), AV("z")])
        assert [frontier.pop() for _ in range(3)] == [AV("z"), AV("y"), AV("x")]


class TestRandom:
    def test_requires_explicit_rng(self):
        # Regression: an implicit ``random.Random()`` default silently
        # broke bit-identical replay in the durable runtime.
        with pytest.raises(TypeError):
            RandomFrontier()  # no unseeded default any more
        with pytest.raises(TypeError, match="bit-identical replay"):
            RandomFrontier(42)  # a bare seed is not a stream
        with pytest.raises(TypeError, match="random.Random"):
            RandomFrontier(rng=None)

    def test_pops_everything_exactly_once(self):
        frontier = RandomFrontier(random.Random(3))
        values = [AV(f"v{i}") for i in range(20)]
        frontier.push_all(values)
        popped = [frontier.pop() for _ in range(20)]
        assert sorted(popped) == sorted(values)
        assert frontier.pop() is None

    def test_seeded_determinism(self):
        def run(seed):
            frontier = RandomFrontier(random.Random(seed))
            frontier.push_all([AV(f"v{i}") for i in range(10)])
            return [frontier.pop() for _ in range(10)]

        assert run(5) == run(5)
        assert run(5) != run(6)


class TestPriority:
    def test_pops_max_score(self):
        scores = {AV("lo"): 1.0, AV("hi"): 5.0, AV("mid"): 3.0}
        frontier = PriorityFrontier(lambda v: scores[v])
        frontier.push_all(scores)
        assert frontier.pop() == AV("hi")
        assert frontier.pop() == AV("mid")
        assert frontier.pop() == AV("lo")

    def test_fifo_tie_break(self):
        frontier = PriorityFrontier(lambda v: 1.0)
        frontier.push_all([AV("first"), AV("second")])
        assert frontier.pop() == AV("first")

    def test_refresh_reorders_after_score_growth(self):
        scores = {AV("a"): 1.0, AV("b"): 2.0}
        frontier = PriorityFrontier(lambda v: scores[v])
        frontier.push_all([AV("a"), AV("b")])
        scores[AV("a")] = 10.0
        frontier.refresh(AV("a"))
        assert frontier.pop() == AV("a")

    def test_unrefreshed_growth_caught_at_pop(self):
        # A head that grew without a refresh is still the maximum.
        scores = {AV("a"): 5.0, AV("b"): 1.0}
        frontier = PriorityFrontier(lambda v: scores[v])
        frontier.push_all([AV("a"), AV("b")])
        scores[AV("a")] = 6.0  # still max; growth must not break popping
        assert frontier.pop() == AV("a")

    def test_unrefreshed_growth_pops_at_the_rank_of_its_last_push(self):
        # Scores may change only after a refresh; a value whose score
        # grew unannounced keeps the rank it was pushed at, and popping
        # spends no tick on rescoring it.
        scores = {AV("a"): 1.0, AV("b"): 2.0, AV("c"): 3.0}
        frontier = PriorityFrontier(lambda v: scores[v])
        frontier.push_all(scores)
        scores[AV("a")] = 10.0
        scores[AV("c")] = 20.0
        assert [frontier.pop() for _ in range(3)] == [AV("c"), AV("b"), AV("a")]
        assert frontier.state_dict()["container"]["tick"] == 3

    def test_refresh_of_unknown_value_is_noop(self):
        frontier = PriorityFrontier(lambda v: 1.0)
        frontier.refresh(AV("ghost"))
        assert frontier.pop() is None

    def test_refresh_of_popped_value_is_noop(self):
        frontier = PriorityFrontier(lambda v: 1.0)
        frontier.push(AV("a"))
        frontier.pop()
        frontier.refresh(AV("a"))
        assert frontier.pop() is None

    def test_duplicate_entries_do_not_double_pop(self):
        scores = {AV("a"): 1.0, AV("b"): 0.5}
        frontier = PriorityFrontier(lambda v: scores[v])
        frontier.push_all([AV("a"), AV("b")])
        for _ in range(5):
            frontier.refresh(AV("a"))
        assert frontier.pop() == AV("a")
        assert frontier.pop() == AV("b")
        assert frontier.pop() is None


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=40))
def test_property_each_pushed_value_popped_once(raw):
    """All frontier kinds: pops = distinct pushes, no repeats, no losses."""
    values = [AV(f"v{i}") for i in raw]
    distinct = len(set(values))
    for frontier in (
        FifoFrontier(),
        LifoFrontier(),
        RandomFrontier(random.Random(0)),
        PriorityFrontier(lambda v: hash(v) % 7),
    ):
        frontier.push_all(values)
        popped = []
        while True:
            value = frontier.pop()
            if value is None:
                break
            popped.append(value)
        assert len(popped) == distinct
        assert set(popped) == set(values)
