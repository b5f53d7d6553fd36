"""The multi-core serving cluster: identity across worker counts.

The bar mirrors the network lane's original acceptance test: a crawl
against a 4-worker cluster must be bit-identical — records, rounds,
seeds, per-step history — to the same crawl against 1 worker and to
the in-process lane, and the merged accounting must not betray the
worker count.
"""

from __future__ import annotations

import random
import threading
import time
import urllib.request

import pytest

from repro.core.query import Query
from repro.crawler.engine import CrawlerEngine
from repro.datasets import load_dataset
from repro.experiments.harness import sample_seed_values
from repro.net import RemoteWebDatabase
from repro.net.cluster import (
    ClusterSnapshot,
    SourceCluster,
    SourceRecipe,
    reuseport_supported,
)
from repro.policies import GreedyLinkSelector
from repro.server import SimulatedWebDatabase
from repro.server.limits import RateLimiterSpec, merge_runtime_states

needs_reuseport = pytest.mark.skipif(
    not reuseport_supported(), reason="SO_REUSEPORT unavailable"
)


@pytest.fixture(scope="module")
def small_table():
    return load_dataset("imdb", 400, seed=1)


def make_sources(table):
    return {"imdb": SimulatedWebDatabase(table, page_size=10)}


def crawl_remote(url, seed=1, target=0.5):
    with RemoteWebDatabase(url, source="imdb") as server:
        engine = CrawlerEngine(server, GreedyLinkSelector(), seed=seed)
        seeds = server.truth_seeds(1, seed=seed, min_frequency=2)
        result = engine.crawl(seeds, target_coverage=target)
        return result, sorted(engine.local_db.record_ids()), seeds


class TestRecipeRoundTrip:
    def test_shared_memory_recipe(self, small_table):
        source = SimulatedWebDatabase(small_table, page_size=10)
        recipe = SourceRecipe.from_source("imdb", source)
        try:
            rebuilt = recipe.build()
            assert rebuilt.page_size == 10
            assert rebuilt.table.name == small_table.name
            assert len(rebuilt.table) == len(small_table)
        finally:
            if recipe.handle is not None:
                recipe.handle.unlink()

    def test_pickle_fallback_recipe(self, small_table):
        source = SimulatedWebDatabase(small_table, page_size=7)
        recipe = SourceRecipe.from_source(
            "imdb", source, use_shared_memory=False
        )
        assert recipe.handle is None
        rebuilt = recipe.build()
        assert rebuilt.page_size == 7
        assert len(rebuilt.table) == len(small_table)


class TestMergeRuntimeStates:
    def test_merge_is_order_stable_and_additive(self):
        one = {
            "windows": {"a": [1.0, 3.0]},
            "violations": {"a": 1},
            "banned_until": {"a": 10.0},
            "denials": 2,
            "bans_issued": 1,
        }
        two = {
            "windows": {"a": [2.0], "b": [5.0]},
            "violations": {"b": 4},
            "banned_until": {"a": 12.0},
            "denials": 3,
            "bans_issued": 0,
        }
        merged = merge_runtime_states([one, two])
        assert merged["windows"] == {"a": [1.0, 2.0, 3.0], "b": [5.0]}
        assert merged["violations"] == {"a": 1, "b": 4}
        assert merged["banned_until"] == {"a": 12.0}  # latest ban wins
        assert merged["denials"] == 5
        assert merged["bans_issued"] == 1


class TestThreadLane:
    def test_serves_and_accounts(self, small_table):
        cluster = SourceCluster(
            make_sources(small_table), workers=2, mode="thread"
        )
        with cluster as url:
            result, ids, _seeds = crawl_remote(url)
            snapshot = cluster.snapshot()
            assert snapshot.rounds["imdb"] == result.communication_rounds
            assert snapshot.requests_served > 0
        final = cluster.final_snapshot
        assert final is not None
        assert final.rounds["imdb"] >= result.communication_rounds

    def test_workers_one_is_legal(self, small_table):
        with SourceCluster(
            make_sources(small_table), workers=1, mode="thread"
        ) as url:
            _result, ids, _seeds = crawl_remote(url)
            assert ids

    @pytest.mark.parametrize("serve_first", [False, True])
    def test_stop_ends_the_acceptor(self, small_table, serve_first, monkeypatch):
        def acceptors():
            return [
                thread
                for thread in threading.enumerate()
                if thread.name == "repro-net-acceptor"
            ]

        crashes = []
        monkeypatch.setattr(threading, "excepthook", crashes.append)
        before = acceptors()
        cluster = SourceCluster(
            make_sources(small_table), workers=1, mode="thread"
        )
        url = cluster.start()
        if serve_first:  # the acceptor is back in accept() by now
            with urllib.request.urlopen(f"{url}/healthz", timeout=5) as answer:
                assert answer.status == 200
        started = time.perf_counter()
        cluster.stop()
        assert time.perf_counter() - started < 5.0
        assert acceptors() == before
        assert crashes == []


@needs_reuseport
class TestProcessLane:
    def test_crawl_identical_across_worker_counts(self, small_table):
        """workers=1, workers=4, and in-process: bit-identical crawls."""
        local_server = SimulatedWebDatabase(small_table, page_size=10)
        engine = CrawlerEngine(local_server, GreedyLinkSelector(), seed=1)
        seeds = sample_seed_values(
            small_table, 1, random.Random(1), min_frequency=2
        )
        local_result = engine.crawl(seeds, target_coverage=0.5)
        local_ids = sorted(engine.local_db.record_ids())

        outcomes = {}
        accountings = {}
        for workers in (1, 4):
            cluster = SourceCluster(
                make_sources(small_table), workers=workers, mode="process"
            )
            with cluster as url:
                result, ids, remote_seeds = crawl_remote(url)
            outcomes[workers] = (result, ids, remote_seeds)
            accountings[workers] = cluster.final_snapshot.accounting()

        for workers, (result, ids, remote_seeds) in outcomes.items():
            assert remote_seeds == seeds, workers
            assert ids == local_ids, workers
            assert (
                result.communication_rounds
                == local_result.communication_rounds
            ), workers
            assert result.history == local_result.history, workers
        # The merged accounting is placement-invariant: byte-identical
        # no matter how many workers served the connections.
        assert accountings[1] == accountings[4]

    def test_snapshot_merges_worker_registries(self, small_table):
        cluster = SourceCluster(
            make_sources(small_table), workers=2, mode="process"
        )
        with cluster as url:
            _result, _ids, _seeds = crawl_remote(url)
            snapshot = cluster.snapshot()
            assert len(snapshot.payloads) == 2
            registry = snapshot.merged_registry()
            requests = registry.get("net_server_requests_total")
            assert requests.total > 0

    def test_rate_limiter_spec_reaches_workers(self, small_table):
        spec = RateLimiterSpec(max_requests=2, window_seconds=0.05)
        cluster = SourceCluster(
            make_sources(small_table),
            workers=2,
            mode="process",
            rate_limiter=spec,
        )
        with cluster as url:
            # Hammer fast enough to trip some worker's limiter; the
            # client sleeps out Retry-After, so this still completes.
            with RemoteWebDatabase(url, source="imdb") as client:
                values = client.truth_sample(6, seed=2)
                for pair in values:
                    client.submit(Query.equality(pair.attribute, pair.value))
        limiter = cluster.final_snapshot.limiter_state()
        assert limiter is not None
        assert limiter["denials"] >= 0  # state merged without error

    def test_pickle_fallback_mode_serves(self, small_table):
        cluster = SourceCluster(
            make_sources(small_table),
            workers=2,
            mode="process",
            use_shared_memory=False,
        )
        with cluster as url:
            _result, ids, _seeds = crawl_remote(url)
            assert ids


class TestSnapshotAccounting:
    def test_accounting_excludes_placement_dependent_facts(self):
        payload = {
            "registry": {"metrics": []},
            "rounds": {"imdb": 7},
            "limiter": None,
            "cache": (5, 2, 0, 2),
            "requests_served": 9,
        }
        snapshot = ClusterSnapshot([payload])
        accounting = snapshot.accounting()
        assert accounting["rounds"] == {"imdb": 7}
        assert "cache" not in accounting
        assert "requests_served" not in accounting
        # cache stats stay reachable, just not in the invariant report
        assert snapshot.cache_stats == (5, 2, 0, 2)

    def test_rounds_sum_across_workers(self):
        payloads = [
            {
                "registry": {"metrics": []},
                "rounds": {"imdb": 3, "books": 1},
                "limiter": None,
                "cache": None,
                "requests_served": 4,
            },
            {
                "registry": {"metrics": []},
                "rounds": {"imdb": 2},
                "limiter": None,
                "cache": None,
                "requests_served": 2,
            },
        ]
        snapshot = ClusterSnapshot(payloads)
        assert snapshot.rounds == {"books": 1, "imdb": 5}
        assert snapshot.requests_served == 6
        assert snapshot.cache_stats is None


class TestClusterValidation:
    def test_workers_must_be_positive(self, small_table):
        with pytest.raises(ValueError):
            SourceCluster(make_sources(small_table), workers=0)

    def test_unknown_mode_rejected(self, small_table):
        with pytest.raises(ValueError):
            SourceCluster(make_sources(small_table), mode="fibers")

    def test_snapshot_requires_running_cluster(self, small_table):
        cluster = SourceCluster(make_sources(small_table), mode="thread")
        with pytest.raises(RuntimeError):
            cluster.snapshot()
