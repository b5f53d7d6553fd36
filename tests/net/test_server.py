"""Tests for the HTTP front end: routing, wire formats, limits, transport."""

import json
import logging
import socket
import threading
import time
import urllib.request
from urllib.error import HTTPError
from urllib.parse import urlencode

import pytest

from repro.core import Query
from repro.net import AsyncSourceServer, ServerThread, SourceService
from repro.net.protocol import parse_page_json
from repro.server import RateLimiter, SimulatedWebDatabase, parse_page


def get(service, target, headers=None, client="t"):
    return service.handle("GET", target, headers or {}, client)


def body_json(response):
    return json.loads(response.body.decode("utf-8"))


class TestRouting:
    def test_index_lists_sources(self, service):
        response = get(service, "/")
        assert response.status == 200
        assert body_json(response)["sources"] == ["books", "imdb"]

    def test_healthz(self, service):
        assert body_json(get(service, "/healthz")) == {"ok": True}

    def test_unknown_route_404(self, service):
        response = get(service, "/nope")
        assert response.status == 404
        assert body_json(response)["error"] == "not-found"

    def test_unknown_source_404(self, service):
        assert get(service, "/sources/ghost/query?a=x&v=y").status == 404

    def test_method_not_allowed(self, service):
        response = service.handle("POST", "/healthz", {}, "t")
        assert response.status == 405

    def test_meta_descriptor(self, service):
        payload = body_json(get(service, "/sources/books/meta"))
        assert payload["name"] == "books"
        assert payload["pageSize"] == 2
        assert "price" not in payload["interface"]["queriable"]

    def test_handle_never_raises(self, imdb_table):
        class Broken(SimulatedWebDatabase):
            def submit(self, query, page_number=1):
                raise RuntimeError("boom")

        service = SourceService({"b": Broken(imdb_table)})
        response = get(service, "/sources/b/query?a=genre&v=drama")
        assert response.status == 500
        assert body_json(response)["error"] == "internal"


class TestQueryRoute:
    def test_json_page_matches_in_process(self, service, books):
        source = SimulatedWebDatabase(books, page_size=2)
        expected = source.submit(Query.equality("publisher", "orbit"), 2)
        response = get(
            service,
            "/sources/books/query?" + urlencode(
                [("a", "publisher"), ("v", "orbit"), ("page", "2")]
            ),
        )
        assert response.status == 200
        assert parse_page_json(response.body.decode("utf-8")) == expected

    def test_xml_page_matches_in_process(self, service, books):
        source = SimulatedWebDatabase(books, page_size=2)
        expected = source.submit(Query.equality("publisher", "orbit"))
        response = get(
            service,
            "/sources/books/query?a=publisher&v=orbit&format=xml",
        )
        assert response.status == 200
        assert response.content_type.startswith("application/xml")
        assert parse_page(response.body.decode("utf-8")) == expected

    def test_unsupported_query_400_costs_no_round(self, service):
        before = service.sources["books"].rounds
        response = get(service, "/sources/books/query?a=price&v=10")
        assert response.status == 400
        assert body_json(response)["error"] == "unsupported-query"
        assert service.sources["books"].rounds == before

    def test_page_out_of_range_404_costs_a_round(self, service):
        before = service.sources["books"].rounds
        response = get(
            service, "/sources/books/query?a=publisher&v=orbit&page=99"
        )
        assert response.status == 404
        assert body_json(response)["error"] == "page-out-of-range"
        assert service.sources["books"].rounds == before + 1

    def test_bad_params_400(self, service):
        assert get(service, "/sources/books/query").status == 400
        assert get(
            service, "/sources/books/query?a=publisher&v=orbit&page=x"
        ).status == 400
        assert get(
            service, "/sources/books/query?a=publisher&v=orbit&format=csv"
        ).status == 400

    @pytest.mark.parametrize(
        "params",
        [
            "kw=",
            "a=title&v=",
            "a=&v=x",
            "a=publisher&v=x&a=publisher&v=y",
            "a=title&v=&a=publisher&v=x",
            "a=title&v=%20%20&a=publisher&v=x",
            "a=&v=x&a=publisher&v=y",
        ],
    )
    def test_malformed_query_400_costs_no_round(self, service, params):
        before = service.sources["books"].rounds
        response = get(service, f"/sources/books/query?{params}")
        assert response.status == 400
        assert body_json(response)["error"] == "bad-request"
        assert service.sources["books"].rounds == before

    def test_rounds_accumulate(self, service):
        get(service, "/sources/books/query?a=publisher&v=orbit")
        get(service, "/sources/books/query?a=publisher&v=orbit&page=2")
        assert service.sources["books"].rounds == 2


class TestRateLimiting:
    def fake_clock(self):
        state = {"now": 0.0}

        def clock():
            return state["now"]

        return state, clock

    def make_service(self, books, **limiter_kwargs):
        state, clock = self.fake_clock()
        limiter = RateLimiter(clock=clock, **limiter_kwargs)
        service = SourceService(
            {"books": SimulatedWebDatabase(books, page_size=2)},
            rate_limiter=limiter,
        )
        return service, state

    def test_429_with_retry_after(self, books):
        service, state = self.make_service(
            books, max_requests=2, window_seconds=10.0
        )
        target = "/sources/books/query?a=publisher&v=orbit"
        assert get(service, target).status == 200
        state["now"] = 1.0
        assert get(service, target).status == 200
        state["now"] = 4.0
        denied = get(service, target)
        assert denied.status == 429
        payload = body_json(denied)
        assert payload["error"] == "rate-limited"
        # The exact reset: the oldest admitted request (t=0) leaves the
        # 10s window at t=10, so 6 seconds from now (t=4).
        assert payload["retryAfter"] == pytest.approx(6.0)
        assert ("Retry-After", "6") in denied.headers

    def test_clients_are_independent(self, books):
        service, _state = self.make_service(
            books, max_requests=1, window_seconds=10.0
        )
        target = "/sources/books/query?a=publisher&v=orbit"
        assert get(service, target, client="a").status == 200
        assert get(service, target, client="b").status == 200
        assert get(service, target, client="a").status == 429

    def test_x_client_id_overrides_peer(self, books):
        service, _state = self.make_service(
            books, max_requests=1, window_seconds=10.0
        )
        target = "/sources/books/query?a=publisher&v=orbit"
        headers = {"x-client-id": "same"}
        assert get(service, target, headers, client="a").status == 200
        assert get(service, target, headers, client="b").status == 429

    def test_metadata_routes_not_limited(self, books):
        service, _state = self.make_service(
            books, max_requests=1, window_seconds=10.0
        )
        get(service, "/sources/books/query?a=publisher&v=orbit")
        assert get(service, "/sources/books/meta").status == 200
        assert get(service, "/healthz").status == 200


class TestTruthRoutes:
    def test_size(self, service, books):
        payload = body_json(get(service, "/sources/books/truth/size"))
        assert payload["size"] == len(books)

    def test_seeds_mirror_sample_seed_values(self, service, books):
        import random

        from repro.core import sample_seed_values

        expected = sample_seed_values(
            books, 2, random.Random(7), min_frequency=2
        )
        payload = body_json(
            get(service, "/sources/books/truth/seeds?n=2&seed=7&min_frequency=2")
        )
        assert payload["values"] == [[v.attribute, v.value] for v in expected]

    def test_sample_is_deterministic_and_queriable(self, service, books):
        a = body_json(get(service, "/sources/books/truth/sample?n=5&seed=3"))
        b = body_json(get(service, "/sources/books/truth/sample?n=5&seed=3"))
        assert a == b
        assert all(attr != "price" for attr, _value in a["values"])

    def test_sealed_when_truth_not_exposed(self, books):
        service = SourceService(
            {"books": SimulatedWebDatabase(books, page_size=2)},
            expose_truth=False,
        )
        assert get(service, "/sources/books/truth/size").status == 404
        # The crawl surface stays open.
        assert get(service, "/sources/books/meta").status == 200


class TestMetricsRoute:
    def test_prometheus_text_with_rounds(self, service):
        get(service, "/sources/books/query?a=publisher&v=orbit")
        response = get(service, "/metrics")
        assert response.status == 200
        text = response.body.decode("utf-8")
        assert "net_server_requests_total" in text
        assert 'net_server_rounds_total{source="books"} 1' in text


class TestAsyncTransport:
    def test_keep_alive_serves_many_requests_per_connection(self, served):
        url, service = served
        import http.client

        host = url.split("//")[1]
        connection = http.client.HTTPConnection(host, timeout=10)
        try:
            for page in (1, 2, 1):
                connection.request(
                    "GET",
                    f"/sources/books/query?a=publisher&v=orbit&page={page}",
                )
                response = connection.getresponse()
                assert response.status == 200
                response.read()
        finally:
            connection.close()
        assert service.sources["books"].rounds == 3

    def test_404_and_parallel_clients(self, served):
        url, _service = served

        def fetch(path):
            try:
                with urllib.request.urlopen(url + path, timeout=10) as r:
                    return r.status
            except HTTPError as error:
                return error.code

        results = []
        threads = [
            threading.Thread(
                target=lambda p=path: results.append(fetch(p))
            )
            for path in ["/healthz", "/sources", "/ghost", "/healthz"]
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(results) == [200, 200, 200, 404]

    def test_clean_shutdown_releases_port(self, service):
        thread = ServerThread(service)
        url = thread.start()
        host, port = url.split("//")[1].split(":")
        thread.stop()
        # The port must be rebindable immediately (no leaked listener).
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            probe.bind((host, int(port)))
        finally:
            probe.close()


def request_line(length):
    """``GET /aaa… HTTP/1.1\\r\\n``, exactly ``length`` bytes long."""
    head, tail = b"GET /", b" HTTP/1.1\r\n"
    return head + b"a" * (length - len(head) - len(tail)) + tail


class TestRequestHead:
    """A request head that stalls or breaks a limit is closed unanswered.

    Raw sockets, because an HTTP client library would refuse to send
    such heads.  The server's ``idle_timeout`` is shortened on its
    instance so a stall is noticed quickly.
    """

    IDLE_TIMEOUT = 0.5

    @pytest.fixture()
    def address(self, service):
        thread = ServerThread(service)
        thread.server.idle_timeout = self.IDLE_TIMEOUT
        url = thread.start()
        host, port = url.split("//")[1].split(":")
        yield host, int(port)
        thread.stop()

    @staticmethod
    def exchange(address, payload):
        """Send ``payload``; return all the server sends before closing.

        Raises ``socket.timeout`` when the server keeps the connection
        open for 5 s.
        """
        received = b""
        with socket.create_connection(address, timeout=5.0) as sock:
            try:
                sock.sendall(payload)
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    received += chunk
            except (BrokenPipeError, ConnectionResetError):
                # Closing with unread bytes buffered resets the socket.
                pass
        return received

    def assert_still_serving(self, address):
        answer = self.exchange(
            address, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        assert answer.startswith(b"HTTP/1.1 200 OK\r\n")

    def test_request_line_at_the_limit_is_answered(self, address):
        line = request_line(AsyncSourceServer.MAX_REQUEST_LINE)
        answer = self.exchange(address, line + b"Connection: close\r\n\r\n")
        assert answer.startswith(b"HTTP/1.1 404 Not Found\r\n")

    @pytest.mark.parametrize(
        "head",
        [
            pytest.param(
                request_line(AsyncSourceServer.MAX_REQUEST_LINE + 1)
                + b"\r\n",
                id="request-line-16KiB-plus-1",
            ),
            pytest.param(
                request_line(70 * 1024) + b"\r\n",
                id="request-line-70KiB",
            ),
            pytest.param(
                b"GET /healthz HTTP/1.1\r\nX-Big: "
                + b"b" * (70 * 1024)
                + b"\r\n\r\n",
                id="header-line-70KiB",
            ),
            pytest.param(
                b"GET /healthz HTTP/1.1\r\n"
                + b"".join(
                    b"X-Pad-%d: %s\r\n" % (n, b"p" * 1000) for n in range(70)
                )
                + b"\r\n",
                id="headers-70KiB-in-total",
            ),
        ],
    )
    def test_oversized_head_is_closed_unanswered(self, address, head, caplog):
        with caplog.at_level(logging.ERROR):
            assert self.exchange(address, head) == b""
            self.assert_still_serving(address)
        # readline() raises ValueError on a line past asyncio's 64 KiB
        # stream limit; escaping the handler, asyncio would log it with
        # a traceback.
        assert [r.getMessage() for r in caplog.records] == []

    def test_stalled_head_is_closed_after_the_idle_timeout(self, address):
        started = time.monotonic()
        assert self.exchange(address, b"GET /healthz HTTP/1.1\r\n") == b""
        elapsed = time.monotonic() - started
        assert self.IDLE_TIMEOUT <= elapsed + 0.05
        assert elapsed < self.IDLE_TIMEOUT + 2.0
        self.assert_still_serving(address)
