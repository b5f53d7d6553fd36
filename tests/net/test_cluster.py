"""The multi-core serving cluster: identity across worker counts.

The bar mirrors the network lane's original acceptance test: a crawl
against a 4-worker cluster must be bit-identical — records, rounds,
seeds, per-step history — to the same crawl against 1 worker and to
the in-process lane, and the merged accounting must not betray the
worker count.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import random
import socket
import sys
import urllib.error
import urllib.request

import pytest

from repro.core.errors import UnsupportedQueryError
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
from repro.net.protocol import query_url
from repro.policies import GreedyLinkSelector
from repro.server import SimulatedWebDatabase
from repro.server.interface import QueryInterface
from repro.server.limits import (
    RateLimiterSpec,
    ResultLimitPolicy,
    merge_runtime_states,
)

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


def keyword_source(table):
    """A search-box-only source with every other setting off its default."""
    return SimulatedWebDatabase(
        table,
        page_size=7,
        limit_policy=ResultLimitPolicy(limit=20, ordering="ranked", seed=3),
        report_total=False,
        interface=QueryInterface.keyword_only(name="imdb-box"),
        order_cache_size=16,
    )


def keyword_queries(table, count=4):
    """Keyword queries over the table's most frequent values."""
    pairs = sorted(
        table.distinct_values(), key=lambda pair: (-table.frequency(pair), pair)
    )
    return [Query.keyword(pair.value) for pair in pairs[:count]]


def all_pages(source, query):
    first = source.submit(query)
    rest = [source.submit(query, n) for n in range(2, first.num_pages + 1)]
    return [first, *rest]


def settings(source):
    """Every constructor setting of a source (not its log or caches)."""
    return (
        source.page_size,
        source.limit_policy,
        source.report_total,
        source.interface,
        source.order_cache_size,
    )


class TestRecipeRoundTrip:
    def test_shared_memory_recipe(self, small_table):
        """Workers share the caller's table object, not a copy of it.

        ``build()`` returns a new source over that same table, with a
        fresh log and every setting of the caller's source.
        """
        source = keyword_source(small_table)
        queries = keyword_queries(small_table)
        expected = [all_pages(source, query) for query in queries]
        assert source.rounds > 0
        recipe = SourceRecipe.from_source("imdb", source)
        assert recipe.table is small_table
        rebuilt = recipe.build()
        assert rebuilt is not source
        assert rebuilt.table is small_table
        assert rebuilt.rounds == 0
        assert settings(rebuilt) == settings(source)
        assert [all_pages(rebuilt, query) for query in queries] == expected

    def test_pickle_fallback_recipe(self, small_table):
        """Under spawn a worker gets the recipe as one pickle."""
        source = keyword_source(small_table)
        queries = keyword_queries(small_table)
        expected = [all_pages(source, query) for query in queries]
        assert any(len(pages) > 1 for pages in expected)
        recipe = SourceRecipe.from_source("imdb", source)
        shipped = pickle.loads(pickle.dumps(recipe)).build()
        assert shipped.table is not small_table
        assert len(shipped.table) == len(small_table)
        assert shipped.rounds == 0
        assert settings(shipped) == settings(source)
        assert [all_pages(shipped, query) for query in queries] == expected


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
            result, _ids, _seeds = crawl_remote(url)
            snapshot = cluster.snapshot()
            assert len(snapshot.payloads) == 2
            assert snapshot.rounds["imdb"] == result.communication_rounds
            assert snapshot.requests_served > 0
            registry = snapshot.merged_registry()
            requests = registry.get("net_server_requests_total")
            assert requests.total > 0
        final = cluster.final_snapshot
        assert final is not None
        assert final.rounds["imdb"] >= result.communication_rounds

    @pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
    def test_every_start_method_serves_the_in_process_crawl(
        self, small_table, monkeypatch, method
    ):
        """Workers started by ``spawn`` or ``forkserver`` serve alike.

        Those start methods inherit none of the parent's descriptors
        and get the recipes as one pickle per worker.  ``spawn`` is the macOS
        default and ``forkserver`` the Linux one from Python 3.14.
        """
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method here")
        engine = CrawlerEngine(
            SimulatedWebDatabase(small_table, page_size=10),
            GreedyLinkSelector(),
            seed=1,
        )
        seeds = sample_seed_values(
            small_table, 1, random.Random(1), min_frequency=2
        )
        local = engine.crawl(seeds, target_coverage=0.5)
        local_ids = sorted(engine.local_db.record_ids())
        get_context = multiprocessing.get_context
        used = []

        def get_context_for_method(name=None):
            context = get_context(name or method)
            used.append(context.get_start_method())
            return context

        monkeypatch.setattr(
            multiprocessing, "get_context", get_context_for_method
        )
        cluster = SourceCluster(make_sources(small_table), workers=2)
        with cluster as url:
            result, ids, remote_seeds = crawl_remote(url)
        assert used == [method]
        assert remote_seeds == seeds
        assert ids == local_ids
        assert result.communication_rounds == local.communication_rounds
        assert result.history == local.history
        final = cluster.final_snapshot
        assert final.rounds["imdb"] >= local.communication_rounds

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

    @pytest.mark.skipif(
        not sys.platform.startswith("linux") or not os.path.isdir("/dev/shm"),
        reason="needs Linux /dev/shm",
    )
    def test_workers_create_no_shared_memory(self, small_table):
        before = set(os.listdir("/dev/shm"))
        cluster = SourceCluster(
            make_sources(small_table), workers=1, mode="process"
        )
        with cluster as url:
            _result, ids, _seeds = crawl_remote(url)
            assert ids
            assert set(os.listdir("/dev/shm")) - before == set()


@needs_reuseport
@pytest.mark.parametrize("mode", ["process"])
def test_keyword_only_source_answers_as_in_process(small_table, mode):
    """Workers serve the caller's interface and settings unchanged."""
    source = keyword_source(small_table)
    queries = keyword_queries(small_table)
    expected = [all_pages(keyword_source(small_table), q) for q in queries]
    top = max(small_table.distinct_values(), key=small_table.frequency)
    equality = Query.from_attribute_value(top)
    with pytest.raises(UnsupportedQueryError):
        source.submit(equality)
    with SourceCluster({"imdb": source}, workers=1, mode=mode) as url:
        with RemoteWebDatabase(url, source="imdb") as client:
            assert client.interface == source.interface
            assert client.page_size == source.page_size
            with pytest.raises(UnsupportedQueryError):
                client.submit(equality)
            assert [all_pages(client, q) for q in queries] == expected
            assert client.rounds == sum(len(pages) for pages in expected)
        # The worker's source refuses the query too, not only the client.
        target = query_url(f"{url}/sources/imdb/query", equality)
        with pytest.raises(urllib.error.HTTPError) as refused:
            urllib.request.urlopen(target, timeout=5)
        refused.value.close()
        assert refused.value.code == 400


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
        """Workers are processes; no other mode is accepted."""
        for mode in ("fibers", "thread", "auto"):
            with pytest.raises(ValueError):
                SourceCluster(make_sources(small_table), mode=mode)

    def test_needs_reuseport(self, small_table, monkeypatch):
        monkeypatch.delattr(socket, "SO_REUSEPORT", raising=False)
        assert not reuseport_supported()
        with pytest.raises(RuntimeError, match="SO_REUSEPORT"):
            SourceCluster(make_sources(small_table), workers=1)

    @needs_reuseport
    def test_refuses_a_port_another_server_listens_on(self, small_table):
        """Another cluster's port is busy, not shared with it."""
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as other:
            other.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            other.bind(("127.0.0.1", 0))
            other.listen()
            port = other.getsockname()[1]
            cluster = SourceCluster(
                make_sources(small_table), port=port, workers=1
            )
            with pytest.raises(OSError):
                cluster.start()
            assert cluster.stop() is None

    @needs_reuseport
    def test_restarts_on_its_port_past_closing_connections(
        self, small_table
    ):
        """The last run's server-side connection does not block a rerun."""
        cluster = SourceCluster(make_sources(small_table), workers=1)
        url = cluster.start()
        host, port = url.split("//")[1].split(":")
        with socket.create_connection((host, int(port)), timeout=5) as kept:
            kept.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert kept.recv(65536).startswith(b"HTTP/1.1 200 OK")
            cluster.stop()  # closes the kept-alive connection first
            rerun = SourceCluster(
                make_sources(small_table), port=int(port), workers=1
            )
            with rerun as rerun_url:
                assert rerun_url == url
                with urllib.request.urlopen(f"{url}/healthz", timeout=5):
                    pass

    @needs_reuseport
    def test_serves_an_ipv6_host(self, small_table):
        try:
            with socket.socket(socket.AF_INET6, socket.SOCK_STREAM) as probe:
                probe.bind(("::1", 0))
        except OSError:
            pytest.skip("no IPv6 loopback here")
        cluster = SourceCluster(
            make_sources(small_table), host="::1", workers=1
        )
        with cluster as url:
            assert url == f"http://[::1]:{cluster.port}"
            with urllib.request.urlopen(f"{url}/healthz", timeout=5) as answer:
                assert answer.status == 200

    @needs_reuseport
    def test_snapshot_requires_running_cluster(self, small_table):
        cluster = SourceCluster(make_sources(small_table))
        with pytest.raises(RuntimeError):
            cluster.snapshot()
