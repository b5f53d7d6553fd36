"""Fleet planning: deterministic, heterogeneous, rebuildable anywhere."""

import pytest

from repro.core import CrawlError
from repro.fleet import (
    FLEET_POLICIES,
    build_source,
    plan_fleet,
    source_seeds,
)
from tests.conftest import modules_loaded_after


class TestPlanFleet:
    def test_same_inputs_same_plan(self):
        assert plan_fleet(60, seed=3, scale=0.5) == plan_fleet(
            60, seed=3, scale=0.5
        )

    def test_different_seeds_differ(self):
        assert plan_fleet(60, seed=1) != plan_fleet(60, seed=2)

    def test_scale_shrinks_sources_not_the_fleet(self):
        full = plan_fleet(40, seed=0, scale=1.0)
        small = plan_fleet(40, seed=0, scale=0.25)
        assert len(full) == len(small) == 40
        assert sum(s.records for s in small) < sum(s.records for s in full)

    def test_plan_is_heterogeneous(self):
        specs = plan_fleet(32, seed=0)
        assert len({s.dataset for s in specs}) == 4
        assert {s.policy for s in specs} == set(FLEET_POLICIES)
        assert len({s.page_size for s in specs}) > 1
        assert len({s.records for s in specs}) > 1

    def test_names_are_unique_and_sortable(self):
        specs = plan_fleet(120, seed=5)
        names = [s.name for s in specs]
        assert len(set(names)) == 120
        assert names == sorted(names)

    def test_validation(self):
        with pytest.raises(CrawlError):
            plan_fleet(0)
        with pytest.raises(CrawlError):
            plan_fleet(10, scale=0.0)


class TestBuildSource:
    def test_every_policy_builds_and_seeds(self):
        # One spec per policy; each must yield a working engine and at
        # least one usable seed value.
        specs = plan_fleet(16, seed=2, scale=0.25)
        by_policy = {}
        for spec in specs:
            by_policy.setdefault(spec.policy, spec)
        assert set(by_policy) == set(FLEET_POLICIES)
        for spec in by_policy.values():
            engine = build_source(spec, max_step_rounds=3)
            seeds = source_seeds(spec, engine)
            assert len(seeds) == 1

    def test_step_cap_bounds_rounds_per_step(self):
        spec = plan_fleet(4, seed=0, scale=1.0)[0]
        engine = build_source(spec, max_step_rounds=2)
        seeds = source_seeds(spec, engine)
        engine.prepare(seeds)
        before = engine.server.rounds
        engine.step()
        assert engine.server.rounds - before <= 2

    def test_rebuild_is_bit_identical(self):
        spec = plan_fleet(8, seed=9, scale=0.25)[3]
        a = build_source(spec, max_step_rounds=4)
        b = build_source(spec, max_step_rounds=4)
        a.prepare(source_seeds(spec, a))
        b.prepare(source_seeds(spec, b))
        for _ in range(5):
            # step() returns None once the frontier is dry; twins must
            # dry up on the same step.
            if a.step() is None:
                assert b.step() is None
                break
            assert b.step() is not None
        assert a.state_dict() == b.state_dict()


def test_import_leaves_the_experiment_drivers_unloaded():
    """Seeding needs only the core's sample_seed_values: importing the
    fleet must not pull in repro.experiments (and scipy with it)."""
    assert not modules_loaded_after(("repro.fleet",), ("repro.experiments",))
