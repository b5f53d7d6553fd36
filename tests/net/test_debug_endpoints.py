"""The ops/debug surface and cross-lane trace propagation, end to end.

Covers the ``/debug/*`` endpoints on a single service, server-side span
recording on the HTTP query path, the cluster's merged debug plane
(including the ``/metrics`` merged-scrape regression), and the stitched
client+server trace with its byte-identity-across-workers guarantee.
"""

from __future__ import annotations

import json
import re
import urllib.request

import pytest

from repro.crawler.engine import CrawlerEngine
from repro.datasets import load_dataset
from repro.net import RemoteWebDatabase
from repro.net.cluster import SourceCluster, reuseport_supported
from repro.obs import CrawlTraceContext, ServerSpanTracer, stitch_traces
from repro.policies import GreedyLinkSelector
from repro.runtime.events import EventBus
from repro.server import SimulatedWebDatabase
from repro.trace import TraceSink, load_trace, validate_trace_jsonl

needs_reuseport = pytest.mark.skipif(
    not reuseport_supported(), reason="SO_REUSEPORT unavailable"
)

QUERY = "/sources/books/query?a=publisher&v=orbit"


def get(service, target, headers=None, client="t"):
    return service.handle("GET", target, headers or {}, client)


def body_json(response):
    return json.loads(response.body.decode("utf-8"))


def http_json(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read())


def http_text(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.read().decode("utf-8")


def scraped_rounds(text, source="imdb"):
    match = re.search(
        rf'net_server_rounds_total{{source="{source}"}} (\d+)', text
    )
    return None if match is None else int(match.group(1))


@pytest.fixture(scope="module")
def small_table():
    return load_dataset("imdb", 400, seed=1)


def make_sources(table):
    return {"imdb": SimulatedWebDatabase(table, page_size=10)}


def crawl_remote_traced(url, client_trace=None, seed=1, target=0.4):
    """A remote crawl with X-Repro-Trace propagation switched on."""
    bus = EventBus()
    sink = None
    if client_trace is not None:
        sink = bus.attach(TraceSink(client_trace, include_timings=False))
    context = bus.attach(CrawlTraceContext(trace_id="greedy-link-s1"))
    with RemoteWebDatabase(
        url, source="imdb", trace_context=context
    ) as server:
        engine = CrawlerEngine(
            server, GreedyLinkSelector(), seed=seed, bus=bus
        )
        seeds = server.truth_seeds(1, seed=seed, min_frequency=2)
        result = engine.crawl(seeds, target_coverage=target)
    if sink is not None:
        sink.close()
    return result


class TestSingleServiceDebug:
    def test_health_defaults_to_single(self, service):
        payload = body_json(get(service, "/debug/health"))
        assert payload == {"ok": True, "mode": "single", "workers": 1}

    def test_status_reports_local_state(self, service):
        get(service, QUERY)
        payload = body_json(get(service, "/debug/status"))
        assert payload["ok"] is True
        assert payload["merged"] is False
        assert payload["mode"] == "single"
        assert payload["rounds"]["total"] == 1
        assert payload["rounds"]["per_source"]["books"] == 1
        assert payload["requests_handled"] >= 1
        assert payload["uptime_s"] >= 0
        assert set(payload["cache"]) == {
            "hits", "misses", "evictions", "entries"
        }
        assert payload["spans"] == {"tracing": False}

    def test_spans_without_tracer(self, service):
        payload = body_json(get(service, "/debug/spans"))
        assert payload == {
            "tracing": False, "count": 0, "dropped": 0, "recent": []
        }

    def test_spans_with_tracer(self, service):
        service.tracer = ServerSpanTracer(include_timings=False)
        get(service, QUERY, headers={"x-repro-trace": "t;s1/q0/p1;0"})
        payload = body_json(get(service, "/debug/spans?n=10"))
        assert payload["tracing"] is True
        assert payload["count"] == 1
        (entry,) = payload["recent"]
        assert entry["id"] == "s1/q0/p1/srv"
        assert entry["source"] == "books"
        assert entry["status"] == 200
        # A bad n degrades to the default instead of erroring.
        assert body_json(get(service, "/debug/spans?n=bogus"))["count"] == 1


class TestServerSpansOnQueryPath:
    def test_oversized_context_id_is_untraced(self, service):
        # int() refuses strings past 4,300 digits; the header fits the
        # server's header budget, so it must degrade to "no tracing".
        service.tracer = ServerSpanTracer(include_timings=False)
        header = "t;s" + "5" * 5000 + "/q1/p1;0"
        response = get(service, QUERY, headers={"x-repro-trace": header})
        assert response.status == 200
        assert service.tracer.payload() == []

    def test_traced_request_records_phases(self, service):
        service.tracer = ServerSpanTracer(include_timings=False)
        response = get(
            service, QUERY, headers={"x-repro-trace": "t;s2/q1/p1;0"}
        )
        assert response.status == 200
        (group,) = service.tracer.payload()
        assert group["ctx"] == "s2/q1/p1"
        assert group["source"] == "books"
        assert group["status"] == 200
        names = [phase[0] for phase in group["phases"]]
        assert names == ["parse", "cache", "render", "serialize"]

    def test_cache_hit_and_miss_identical_skeletons(self, service):
        service.tracer = ServerSpanTracer(include_timings=False)
        get(service, QUERY, headers={"x-repro-trace": "t;s1/q0/p1;0"})
        get(service, QUERY, headers={"x-repro-trace": "t;s1/q0/p1;1"})
        miss, hit = service.tracer.payload()
        miss_phases = [(p[0], p[1]) for p in miss["phases"]]
        hit_phases = [(p[0], p[1]) for p in hit["phases"]]
        # Hit/miss placement is a worker-local accident; the canonical
        # skeleton — names AND attrs — must not betray it.
        assert miss_phases == hit_phases

    def test_unsupported_query_records_400(self, service):
        service.tracer = ServerSpanTracer(include_timings=False)
        response = get(
            service,
            "/sources/books/query?a=price&v=10",
            headers={"x-repro-trace": "t;s1/q0/p1;0"},
        )
        assert response.status == 400
        (group,) = service.tracer.payload()
        assert group["status"] == 400
        # The pipeline stopped inside render (submit rejected the
        # query), so only the completed phases appear.
        assert [p[0] for p in group["phases"]] == ["parse", "cache"]

    def test_page_out_of_range_records_404(self, service):
        service.tracer = ServerSpanTracer(include_timings=False)
        response = get(
            service,
            QUERY + "&page=99",
            headers={"x-repro-trace": "t;s1/q0/p99;0"},
        )
        assert response.status == 404
        (group,) = service.tracer.payload()
        assert group["status"] == 404
        render = [p for p in group["phases"] if p[0] == "render"]
        assert render and render[0][1]["records"] == 0

    def test_untraced_and_malformed_headers_record_nothing(self, service):
        service.tracer = ServerSpanTracer(include_timings=False)
        get(service, QUERY)
        get(service, QUERY, headers={"x-repro-trace": "garbage"})
        assert service.tracer.payload() == []

    def test_tracing_never_changes_the_response(self, service, books):
        plain = get(service, QUERY + "&page=2")
        service.tracer = ServerSpanTracer(include_timings=False)
        traced = get(
            service,
            QUERY + "&page=2",
            headers={"x-repro-trace": "t;s1/q0/p2;0"},
        )
        assert traced.status == plain.status
        assert traced.body == plain.body


@needs_reuseport
class TestProcessClusterDebug:
    def test_metrics_scrape_is_merged_across_workers(self, small_table):
        """Regression: a scrape must not see one worker's registry.

        The crawl's traffic rides one persistent connection (pinned to
        whichever worker accepted it); the scrape opens a fresh
        connection that the kernel may hand to the *other* worker.
        Only the merged registry makes the scraped totals equal the
        crawl's accounting no matter where either connection landed.
        """
        cluster = SourceCluster(
            make_sources(small_table), workers=2, mode="process"
        )
        with cluster as url:
            result = crawl_remote_traced(url)
            for _ in range(4):  # several fresh connections, any worker
                rounds = scraped_rounds(http_text(f"{url}/metrics"))
                assert rounds == result.communication_rounds
            snapshot = cluster.snapshot()
            assert sum(snapshot.rounds.values()) == rounds

    def test_status_merged_and_health_local(self, small_table):
        cluster = SourceCluster(
            make_sources(small_table), workers=2, mode="process"
        )
        with cluster as url:
            result = crawl_remote_traced(url)
            status = http_json(f"{url}/debug/status")
            assert status["merged"] is True
            assert status["mode"] == "process"
            assert status["workers"] == 2
            assert status["rounds"]["total"] == result.communication_rounds
            assert status["requests_handled"] > 0
            health = http_json(f"{url}/debug/health")
            assert health == {"ok": True, "mode": "process", "workers": 2}
            spans = http_json(f"{url}/debug/spans")
            assert spans["tracing"] is False
            assert spans["recent"] == []

    def test_server_trace_byte_identical_across_worker_counts(
        self, small_table, tmp_path
    ):
        contents = {}
        for workers in (1, 2):
            path = tmp_path / f"server-{workers}.jsonl"
            cluster = SourceCluster(
                make_sources(small_table),
                workers=workers,
                mode="process",
                trace_spans=True,
                trace_timings=False,
                trace_path=str(path),
            )
            with cluster as url:
                crawl_remote_traced(url)
            assert validate_trace_jsonl(path) > 0
            contents[workers] = path.read_bytes()
        assert contents[1] == contents[2]

    def test_merged_spans_endpoint(self, small_table):
        cluster = SourceCluster(
            make_sources(small_table),
            workers=2,
            mode="process",
            trace_spans=True,
            trace_timings=False,
        )
        with cluster as url:
            result = crawl_remote_traced(url)
            spans = http_json(f"{url}/debug/spans?n=500")
            assert spans["tracing"] is True
            assert spans["count"] == result.communication_rounds
            assert spans["recent"]
            assert all(
                entry["id"].split("/")[-1].startswith("srv")
                for entry in spans["recent"]
            )

    def test_stitched_trace_end_to_end(self, small_table, tmp_path):
        server_trace = tmp_path / "server.jsonl"
        client_trace = tmp_path / "client.jsonl"
        cluster = SourceCluster(
            make_sources(small_table),
            workers=2,
            mode="process",
            trace_spans=True,
            trace_timings=False,
            trace_path=str(server_trace),
        )
        with cluster as url:
            crawl_remote_traced(url, client_trace=client_trace)
        assert validate_trace_jsonl(server_trace) > 0
        stitched = tmp_path / "stitched.jsonl"
        stats = stitch_traces(client_trace, server_trace, stitched)
        assert validate_trace_jsonl(stitched) == stats["total_spans"]
        trace = load_trace(stitched)
        fetches = [s for s in trace.spans if s["name"] == "fetch"]
        requests = [s for s in trace.spans if s["name"] == "request"]
        assert fetches
        # Every client fetch span gained its server-side child...
        fetch_ids = {s["id"] for s in fetches}
        assert {s["parent"] for s in requests} == fetch_ids
        assert stats["stitched_groups"] == len(fetches)
        # ...and the analyzer sees the stitched lanes.
        from repro.trace import lane_breakdown

        lanes = lane_breakdown(trace)
        assert lanes is not None
        assert lanes["requests"] == len(requests)
        assert lanes["fetches"] == len(fetches)
