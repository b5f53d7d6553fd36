"""Tests for RemoteWebDatabase: surface parity, pipelining, politeness."""

import json
import socket
import threading
import time

import pytest

from repro.core import Query
from repro.core.errors import PaginationError, UnsupportedQueryError
from repro.metrics import MetricsRegistry
from repro.net import RemoteSourceError, RemoteWebDatabase, ServerThread, SourceService
from repro.net.protocol import ProtocolError, SourceDescriptor
from repro.server import (
    PermanentServerFailure,
    RateLimiter,
    SimulatedWebDatabase,
)


@pytest.fixture()
def remote(served):
    url, _service = served
    with RemoteWebDatabase(url, source="books") as client:
        yield client


class TestSurfaceParity:
    def test_interface_and_page_size(self, remote, books):
        local = SimulatedWebDatabase(books, page_size=2)
        assert remote.page_size == local.page_size
        assert remote.interface == local.interface
        assert remote.truth_size() == len(books)

    def test_pages_match_in_process(self, remote, books):
        local = SimulatedWebDatabase(books, page_size=2)
        query = Query.equality("publisher", "orbit")
        for page_number in (1, 2):
            assert remote.submit(query, page_number) == local.submit(
                query, page_number
            )

    def test_xml_format_matches_too(self, served, books):
        url, _service = served
        local = SimulatedWebDatabase(books, page_size=2)
        query = Query.equality("publisher", "orbit")
        with RemoteWebDatabase(url, source="books", format="xml") as client:
            assert client.submit(query) == local.submit(query)

    def test_unsupported_query_raises_without_a_round(self, remote):
        with pytest.raises(UnsupportedQueryError):
            remote.submit(Query.equality("price", "10"))
        assert remote.rounds == 0

    def test_page_out_of_range_charges_the_round(self, remote):
        with pytest.raises(PaginationError):
            remote.submit(Query.equality("publisher", "orbit"), 99)
        assert remote.rounds == 1

    def test_source_required_when_many_mounted(self, served):
        url, _service = served
        with pytest.raises(RemoteSourceError, match="2 sources"):
            RemoteWebDatabase(url)

    def test_unknown_source_rejected(self, served):
        url, _service = served
        with pytest.raises(RemoteSourceError):
            RemoteWebDatabase(url, source="ghost")

    def test_runtime_state_roundtrip(self, remote):
        remote.submit(Query.equality("publisher", "orbit"))
        state = remote.runtime_state()
        assert state == {"rounds": 1}
        remote.load_runtime_state({"rounds": 41})
        assert remote.rounds == 41


class TestRecordReuse:
    def pages(self, client, query):
        page = client.submit(query)
        pages = [page]
        while page.has_next:
            page = client.submit(query, page.page_number + 1)
            pages.append(page)
        return pages

    def test_a_repeated_record_is_the_object_decoded_first(self, remote, books):
        local = SimulatedWebDatabase(books, page_size=2)
        knuth = Query.equality("author", "knuth")
        mitp = Query.equality("publisher", "mitp")
        first = {
            record.record_id: record
            for page in self.pages(remote, knuth)
            for record in page.records
        }
        shared = 0
        for page in self.pages(remote, mitp):
            assert page == local.submit(mitp, page.page_number)
            for record in page.records:
                if record.record_id in first:
                    assert record is first[record.record_id]
                    shared += 1
        assert shared >= 1
        # A page read again (revalidated by its ETag) reuses them too.
        (again,) = self.pages(remote, knuth)[:1]
        assert all(record is first[record.record_id] for record in again.records)


class TestRoundAccounting:
    def test_rounds_count_consumed_pages_only(self, served):
        url, service = served
        with RemoteWebDatabase(
            url, source="books", pipeline_depth=3
        ) as client:
            query = Query.equality("publisher", "orbit")
            page = client.submit(query)  # schedules prefetch of page 2
            assert page.num_pages == 2
            # Switch to a different query without consuming page 2.
            client.submit(Query.equality("publisher", "mitp"))
            assert client.rounds == 2
        # The server saw the speculative fetch; the client's log did not.
        assert service.sources["books"].rounds == 3

    def test_pipelined_walk_matches_serial_rounds(self, served, books):
        url, _service = served
        local = SimulatedWebDatabase(books, page_size=2)
        query = Query.equality("publisher", "orbit")
        expected = []
        page_number = 1
        while True:
            page = local.submit(query, page_number)
            expected.append(page)
            if not page.has_next:
                break
            page_number += 1
        with RemoteWebDatabase(
            url, source="books", pipeline_depth=2
        ) as client:
            got = [client.submit(query, n + 1) for n in range(len(expected))]
            assert got == expected
            assert client.rounds == local.rounds

    def test_wall_times_recorded_per_round(self, remote):
        remote.submit(Query.equality("publisher", "orbit"))
        remote.submit(Query.equality("publisher", "orbit"), 2)
        assert remote.log.timed_rounds == 2
        assert remote.log.total_wall_time > 0.0


class TestPoliteness:
    def test_retry_after_honored_then_succeeds(self, books):
        limiter = RateLimiter(max_requests=2, window_seconds=0.2)
        service = SourceService(
            {"books": SimulatedWebDatabase(books, page_size=2)},
            rate_limiter=limiter,
        )
        registry = MetricsRegistry()
        with ServerThread(service) as url:
            with RemoteWebDatabase(
                url, source="books", pipeline_depth=0, registry=registry
            ) as client:
                query = Query.equality("publisher", "orbit")
                assert client.submit(query, 1).page_number == 1
                assert client.submit(query, 2).page_number == 2
                # Third request trips the limiter; the client sleeps out
                # the (sub-second) window and retries to success.
                assert client.submit(query, 1).page_number == 1
        assert registry.get("net_client_retries_total").total >= 1

    def test_retries_exhausted_is_permanent_failure(self, books):
        limiter = RateLimiter(max_requests=1, window_seconds=30.0)
        service = SourceService(
            {"books": SimulatedWebDatabase(books, page_size=2)},
            rate_limiter=limiter,
        )
        with ServerThread(service) as url:
            with RemoteWebDatabase(
                url,
                source="books",
                pipeline_depth=0,
                max_retries=1,
                retry_after_cap=0.05,
            ) as client:
                query = Query.equality("publisher", "orbit")
                client.submit(query, 1)
                with pytest.raises(PermanentServerFailure):
                    client.submit(query, 2)

    def test_dead_server_is_permanent_failure(self, books):
        service = SourceService(
            {"books": SimulatedWebDatabase(books, page_size=2)}
        )
        thread = ServerThread(service)
        url = thread.start()
        client = RemoteWebDatabase(
            url,
            source="books",
            max_retries=1,
            backoff_base=0.01,
            timeout=2.0,
        )
        thread.stop()  # the service goes away mid-crawl
        try:
            with pytest.raises(PermanentServerFailure):
                client.submit(Query.equality("publisher", "orbit"))
        finally:
            client.close()


class TestLifecycle:
    def test_client_starts_no_thread(self, served):
        url, _service = served
        before = threading.active_count()
        client = RemoteWebDatabase(url, source="books", pipeline_depth=2)
        query = Query.equality("publisher", "orbit")
        page = client.submit(query)
        while page.has_next:
            page = client.submit(query, page.page_number + 1)
        assert page.page_number == 2
        assert client._opened <= client.pipeline_depth + 1
        assert threading.active_count() == before
        client.close()
        assert threading.active_count() == before

    def test_close_is_idempotent_and_blocks_submit(self, served):
        url, _service = served
        client = RemoteWebDatabase(url, source="books")
        client.submit(Query.equality("publisher", "orbit"))
        client.close()
        client.close()
        with pytest.raises(RemoteSourceError):
            client.submit(Query.equality("publisher", "orbit"))

    def test_connections_are_reused(self, served):
        url, _service = served
        with RemoteWebDatabase(
            url, source="books", pipeline_depth=0
        ) as client:
            for page in (1, 2, 1, 2):
                client.submit(Query.equality("publisher", "orbit"), page)
            # Meta + truth_size + 4 pages over at most 1 pooled conn.
            assert client._opened <= 2

    def test_bad_url_rejected_early(self):
        with pytest.raises(ValueError):
            RemoteWebDatabase("ftp://example.org")


def http_answer(body: bytes, status: str = "200 OK", close: bool = False) -> bytes:
    head = f"HTTP/1.1 {status}\r\nContent-Length: {len(body)}\r\n"
    if close:
        head += "Connection: close\r\n"
    return head.encode("latin-1") + b"\r\n" + body


class ScriptedServer:
    """A raw-socket stand-in for the service, answering from a script.

    ``script[i]`` answers the i-th request the server reads, across
    connections: bytes are written back verbatim (an answer carrying
    ``Connection: close`` also closes the connection), and ``None``
    leaves the request unanswered while the connection stays open.
    """

    def __init__(self, script):
        self.script = list(script)
        self.requests = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._held = []
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def __enter__(self) -> str:
        self._thread.start()
        host, port = self._listener.getsockname()[:2]
        return f"http://{host}:{port}"

    def __exit__(self, *exc_info) -> None:
        sockets = [self._listener, *self._held]
        for sock in sockets:  # wakes a blocked accept() or readline()
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self._thread.join(timeout=5.0)
        for sock in sockets:
            sock.close()
        assert not self._thread.is_alive()

    def _serve(self) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return
            self._held.append(sock)
            reader = sock.makefile("rb")
            while self._read_request(reader):
                answer = self.script[min(self.requests, len(self.script) - 1)]
                self.requests += 1
                if answer is None:
                    break
                sock.sendall(answer)
                if b"Connection: close" in answer.split(b"\r\n\r\n")[0]:
                    sock.close()
                    break

    @staticmethod
    def _read_request(reader) -> bool:
        while True:
            line = reader.readline()
            if not line:
                return False
            if line in (b"\r\n", b"\n"):
                return True


@pytest.fixture()
def meta_body(books):
    descriptor = SourceDescriptor.for_source(
        "books", SimulatedWebDatabase(books, page_size=2)
    )
    return json.dumps(descriptor.to_json()).encode("utf-8")


class TestMalformedAndStalledAnswers:
    GARBAGE = b"HTTP/1.1 banana\r\nContent-Length: 0\r\n\r\n"

    @pytest.mark.parametrize("reused", [False, True])
    def test_garbage_status_line_is_a_protocol_error(self, meta_body, reused):
        meta = http_answer(meta_body, close=not reused)
        with ScriptedServer([meta, self.GARBAGE]) as url:
            with RemoteWebDatabase(
                url, source="books", pipeline_depth=0, max_retries=2
            ) as client:
                assert client._opened == 1
                with pytest.raises(ProtocolError, match="status line"):
                    client.submit(Query.equality("publisher", "orbit"))
                assert client.rounds == 0
                # Not retried, and the connection was dropped.
                assert client._opened == (1 if reused else 2)
                assert not client._idle

    @pytest.mark.parametrize(
        "head",
        [
            b"HTTP/1.1 200 OK\r\nContent-Length: -4\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: lots\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nno colon here\r\n\r\n",
        ],
    )
    def test_garbage_headers_are_a_protocol_error(self, meta_body, head):
        with ScriptedServer([http_answer(meta_body), head]) as url:
            with RemoteWebDatabase(
                url, source="books", pipeline_depth=0
            ) as client:
                with pytest.raises(ProtocolError):
                    client.submit(Query.equality("publisher", "orbit"))
                assert client.rounds == 0

    @pytest.mark.parametrize(
        "format, body", [("json", b"\xff\xfe"), ("xml", b"<Items><oops")]
    )
    def test_unreadable_page_is_a_protocol_error(self, meta_body, format, body):
        with ScriptedServer([http_answer(meta_body), http_answer(body)]) as url:
            with RemoteWebDatabase(
                url, source="books", format=format, pipeline_depth=0
            ) as client:
                with pytest.raises(ProtocolError):
                    client.submit(Query.equality("publisher", "orbit"))
                assert client.rounds == 0

    def test_stalled_server_is_permanent_failure(self, meta_body):
        timeout, max_retries, backoff = 0.3, 1, 0.01
        with ScriptedServer([http_answer(meta_body), None]) as url:
            with RemoteWebDatabase(
                url,
                source="books",
                pipeline_depth=0,
                max_retries=max_retries,
                timeout=timeout,
                backoff_base=backoff,
            ) as client:
                started = time.perf_counter()
                with pytest.raises(PermanentServerFailure):
                    client.submit(Query.equality("publisher", "orbit"))
                elapsed = time.perf_counter() - started
                assert client.rounds == 0
        attempts = max_retries + 1
        assert attempts * timeout <= elapsed < attempts * timeout + backoff + 1.0
