"""The crawler's HTTP client: a ``WebDatabase`` over the wire.

:class:`RemoteWebDatabase` exposes the exact surface the crawler engine
reads off :class:`~repro.server.webdb.SimulatedWebDatabase` —
``interface``, ``page_size``, ``submit()``, ``rounds``, ``log``,
``truth_size()`` — so :class:`~repro.crawler.engine.CrawlerEngine`,
:class:`~repro.runtime.crawler.RuntimeCrawler`, the event bus, trace
spans, and checkpoints all work unchanged when the source lives on the
other side of a socket.  Like ``SimulatedWebDatabase`` it is used from
one thread, which owns its sockets: there is no event loop and no
background thread.

Design points:

- **Connection reuse.**  Blocking keep-alive HTTP/1.1 connections
  (``TCP_NODELAY``) on a free list, one per request in flight, so at
  most ``pipeline_depth + 1`` are open.  ``timeout`` bounds each socket
  operation (connect, send, one read), not a whole exchange.
- **Page pipelining.**  Once page *n* of a query is consumed, the
  requests for pages *n+1 … n+depth* are written on other pooled
  connections; the server computes them while the prober extracts page
  *n*, and each answer is read when ``submit()`` consumes its page (a
  failed first attempt is retried then, continuing its attempt count).
  Speculative pages the crawl never consumes (the query was aborted,
  or a stop criterion fired) are counted as ``prefetch_wasted`` and —
  deliberately — **not** charged to the client's communication log;
  their answers are read and dropped before their connections are
  reused.  The log mirrors the paper's cost model of pages *consumed*,
  which keeps a remote crawl's round count byte-identical to the
  in-process lane.  The server's own counter does include speculative
  fetches; the delta is the price of pipelining and is observable at
  ``/metrics``.
- **Revalidation.**  Every 200 result page carries a strong ``ETag``;
  the client remembers the last ``etag_cache_size`` (target → etag,
  body) pairs and revalidates repeats with ``If-None-Match``.  A 304
  answer reuses the cached body byte-for-byte — and still costs a
  communication round, exactly like a full response (the round is
  charged on *consumption* in ``submit()``, which cannot tell a 304
  from a 200 and must not).
- **Record reuse.**  JSON pages decode through a per-client memo of
  record id → :class:`~repro.core.records.Record`.  A record whose wire
  fields equal the held record's normalized fields, in the same
  attribute order, is returned as that object; anything else is decoded
  and replaces the entry.  Late in a crawl most records on a page are
  repeats, so a page costs about its new records.  ``close()`` drops
  the memo.
- **Politeness.**  429/503 responses are honored by sleeping out the
  server's ``Retry-After`` (the JSON body's float, falling back to the
  integer header) before retrying; network failures, timeouts included,
  back off exponentially.  Retries exhausted raise
  :class:`~repro.server.flaky.PermanentServerFailure`, which the
  prober already turns into a failed-query outcome.  An answer whose
  framing or page body does not parse raises
  :class:`~repro.net.protocol.ProtocolError` at once, uncharged.
- **Telemetry.**  Per-request latency lands in a
  :mod:`repro.metrics` histogram, from the write of a request to the
  read of its answer (for a prefetched page, its consumption); the
  wall time of each *consumed* page is totalled on the communication
  log, which the CLI's ``wire time:`` line prints.
"""

from __future__ import annotations

import json
import socket
import time
from collections import OrderedDict
from typing import BinaryIO, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union
from urllib.parse import urlencode, urlsplit

from repro.core.errors import PaginationError, ReproError, UnsupportedQueryError
from repro.core.query import AnyQuery
from repro.core.records import Record
from repro.core.values import AttributeValue
from repro.metrics import MetricsRegistry
from repro.net.protocol import (
    FORMATS,
    ProtocolError,
    SourceDescriptor,
    parse_error,
    parse_page_json,
    encode_query_params,
)
from repro.net.server import LATENCY_BUCKETS
from repro.server.flaky import PermanentServerFailure, TransientServerError
from repro.server.network import CommunicationLog
from repro.server.pagination import ResultPage
from repro.server.service import parse_page

#: Longest status or header line accepted from the service.
MAX_LINE = 65536

_Response = Tuple[int, Dict[str, str], bytes]


class RemoteSourceError(ReproError):
    """The service answered with something the client cannot use."""


class _Connection:
    """One blocking keep-alive HTTP connection."""

    __slots__ = ("sock", "reader", "sent_at")

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")
        #: When the request whose answer is unread was written.
        self.sent_at = 0.0

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


#: A written request: the connection its answer arrives on, or the
#: error that stopped the write (raised when the answer is read).
_Sent = Union[_Connection, OSError]


class _PageRequest(NamedTuple):
    """A page request written ahead of its read, and what retries need."""

    target: str
    conditional: List[Tuple[str, str]]
    cached: Optional[Tuple[str, bytes]]
    trace_parent: Optional[str]
    sent: _Sent


def _read_line(reader: BinaryIO) -> bytes:
    line = reader.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise ProtocolError(f"response line longer than {MAX_LINE} bytes")
    if not line.endswith(b"\n"):
        raise ConnectionResetError("server closed the connection")
    return line


def _read_response(reader: BinaryIO) -> _Response:
    """Read one HTTP/1.1 answer; malformed framing is a ProtocolError."""
    status_line = _read_line(reader)
    parts = status_line.split(None, 2)
    status = int(parts[1]) if len(parts) > 1 and parts[1].isdigit() else 0
    if not 100 <= status <= 599 or not parts[0].startswith(b"HTTP/"):
        raise ProtocolError(f"malformed status line {status_line[:80]!r}")
    headers: Dict[str, str] = {}
    while (line := _read_line(reader)) not in (b"\r\n", b"\n"):
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep or not name.strip():
            raise ProtocolError(f"malformed header line {line[:80]!r}")
        headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length", "0")
    if not (length.isascii() and length.isdigit()):
        raise ProtocolError(f"malformed Content-Length {length!r}")
    body = reader.read(int(length))
    if len(body) != int(length):
        raise ConnectionResetError("server closed the connection mid-body")
    return status, headers, body


class RemoteWebDatabase:
    """A web database reached over HTTP (see module docstring).

    Parameters
    ----------
    base_url:
        Service root, e.g. ``http://127.0.0.1:8080``.
    source:
        Mounted source name; defaults to the only mounted source (an
        error names the candidates when there are several).
    format:
        Wire format for result pages: ``"json"`` (default; cheapest to
        parse) or ``"xml"`` (the paper-faithful Amazon-style envelope).
    pipeline_depth:
        How many pages beyond the one being extracted may be in flight
        per query (0 disables pipelining).  At most
        ``pipeline_depth + 1`` connections are open at once.
    max_retries:
        Transient-failure budget per page request (429/503, connection
        errors, timeouts); exhausted raises
        :class:`~repro.server.flaky.PermanentServerFailure`.
    timeout:
        Seconds allowed for each socket operation: a connect, a send,
        or one read of the answer.
    registry:
        Optional :class:`~repro.metrics.MetricsRegistry` receiving
        request-latency histograms and transport counters.
    client_id:
        Value of the ``X-Client-Id`` header, which the service's rate
        limiter keys on; defaults to a per-instance token.
    etag_cache_size:
        How many (target → ETag, body) pairs to remember for
        ``If-None-Match`` revalidation (0 disables conditional
        requests).
    trace_context:
        Optional :class:`~repro.obs.context.CrawlTraceContext` attached
        to the crawl's event bus.  When present, every page fetch
        carries an ``X-Repro-Trace`` header naming the client span the
        request belongs to (plus the attempt number), so the server can
        open child spans that ``repro trace stitch`` later joins back
        under the fetch.  The header is observability-only: responses
        are byte-identical with and without it.
    """

    _instances = 0

    def __init__(
        self,
        base_url: str,
        source: Optional[str] = None,
        *,
        format: str = "json",
        pipeline_depth: int = 2,
        max_retries: int = 4,
        timeout: float = 30.0,
        retry_after_cap: float = 30.0,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        registry: Optional[MetricsRegistry] = None,
        client_id: Optional[str] = None,
        etag_cache_size: int = 256,
        trace_context=None,
    ) -> None:
        if format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}, got {format!r}")
        split = urlsplit(base_url)
        if split.scheme != "http" or not split.hostname:
            raise ValueError(
                f"base_url must be http://host[:port], got {base_url!r}"
            )
        self.base_url = base_url.rstrip("/")
        self._host = split.hostname
        self._port = split.port or 80
        self.format = format
        self.pipeline_depth = max(0, pipeline_depth)
        self.max_retries = max_retries
        self.timeout = timeout
        self.retry_after_cap = retry_after_cap
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        RemoteWebDatabase._instances += 1
        self.client_id = client_id or f"repro-client-{RemoteWebDatabase._instances}"
        self._trace_context = trace_context
        self._trace_id = getattr(trace_context, "trace_id", None)
        self.log = CommunicationLog()
        self.registry = registry
        if registry is not None:
            self._latency = registry.histogram(
                "net_client_request_seconds",
                "Client-observed HTTP exchange latency.",
                labels=("route",),
                buckets=LATENCY_BUCKETS,
            )
            self._responses = registry.counter(
                "net_client_responses_total",
                "HTTP responses received, by status.",
                labels=("status",),
            )
            self._retries = registry.counter(
                "net_client_retries_total",
                "Retried requests, by reason.",
                labels=("reason",),
            )
            self._prefetch = registry.counter(
                "net_client_prefetch_total",
                "Pipelined page prefetches, by fate.",
                labels=("fate",),
            )
            self._revalidated = registry.counter(
                "net_client_etag_total",
                "Conditional page requests, by outcome.",
                labels=("outcome",),
            )
        else:
            self._latency = self._responses = None
            self._retries = self._prefetch = None
            self._revalidated = None
        #: target → (etag, body), least recently used first.
        self.etag_cache_size = max(0, etag_cache_size)
        self._etags: "OrderedDict[str, Tuple[str, bytes]]" = OrderedDict()
        #: Idle keep-alive connections, most recently used last.
        self._idle: List[_Connection] = []
        self._opened = 0
        #: (query, page_number) → page requests written ahead of
        #: consumption, answers unread.
        self._prefetched: Dict[Tuple[AnyQuery, int], _PageRequest] = {}
        #: record id → the record last decoded under it, so a record the
        #: wire repeats exactly decodes to the object the crawl holds.
        self._records: Dict[int, Record] = {}
        self._closed = False
        self._truth_size: Optional[int] = None
        # Fetch the descriptor eagerly: submit() needs the interface
        # for local validation and the engine reads page_size at
        # construction time.
        try:
            descriptor = self._fetch_descriptor(source)
        except BaseException:
            self.close()
            raise
        self.descriptor = descriptor
        self.name = descriptor.name
        self.interface = descriptor.build_interface()
        self.page_size = descriptor.page_size
        self.report_total = descriptor.report_total

    # ------------------------------------------------------------------
    # HTTP core
    # ------------------------------------------------------------------
    def _send(
        self,
        target: str,
        extra_headers: Sequence[Tuple[str, str]],
        trace_parent: Optional[str],
        attempt: int,
    ) -> _Sent:
        """Write one request on a pooled connection; never raises OSError."""
        lines = [
            f"GET {target} HTTP/1.1",
            f"Host: {self._host}:{self._port}",
            f"X-Client-Id: {self.client_id}",
            "Connection: keep-alive",
        ]
        lines.extend(f"{name}: {value}" for name, value in extra_headers)
        if trace_parent is not None:
            # Rebuilt per attempt: the attempt number keeps retried
            # requests distinct server-side (roots …/srv, …/srv1).
            lines.append(
                f"X-Repro-Trace: {self._trace_id};{trace_parent};{attempt}"
            )
        request = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        started = time.perf_counter()
        connection = self._idle.pop() if self._idle else None
        try:
            if connection is None:
                connection = _Connection(self._host, self._port, self.timeout)
                self._opened += 1
            connection.sent_at = started
            connection.sock.sendall(request)
        except OSError as error:
            if connection is not None:
                connection.close()
            return error
        return connection

    def _receive(self, sent: _Sent) -> _Response:
        """Read the answer to a written request and free its connection."""
        if isinstance(sent, OSError):
            raise sent
        try:
            status, headers, body = _read_response(sent.reader)
        except BaseException:
            sent.close()
            raise
        if headers.get("connection", "keep-alive").lower() == "close":
            sent.close()
        else:
            self._idle.append(sent)
        return status, headers, body

    def _fetch(
        self,
        target: str,
        route: str,
        extra_headers: Sequence[Tuple[str, str]] = (),
        trace_parent: Optional[str] = None,
        sent: Optional[_Sent] = None,
    ) -> _Response:
        """One request with retry/backoff and Retry-After politeness.

        ``sent`` is a first attempt written ahead (a prefetch); retries
        after it continue its attempt count.
        """
        attempts = self.max_retries + 1
        last_error: Optional[BaseException] = None
        for attempt in range(attempts):
            if sent is None:
                sent = self._send(target, extra_headers, trace_parent, attempt)
            written, sent = sent, None
            try:
                status, headers, body = self._receive(written)
            except OSError as error:
                last_error = error
                if self._retries is not None:
                    self._retries.inc_key(("network",))
                if attempt + 1 < attempts:
                    time.sleep(
                        min(self.backoff_base * (2.0 ** attempt), self.backoff_cap)
                    )
                continue
            if self._latency is not None:
                self._latency.observe_key(
                    (route,), time.perf_counter() - written.sent_at
                )
                self._responses.inc_key((str(status),))
            if status in (429, 503):
                last_error = TransientServerError(
                    f"{status} from service for {target}"
                )
                if self._retries is not None:
                    self._retries.inc_key(("rate-limited",))
                if attempt + 1 < attempts:
                    time.sleep(self._retry_after(headers, body))
                continue
            return status, headers, body
        raise PermanentServerFailure(
            f"{attempts} attempts failed for {target}"
        ) from last_error

    def _retry_after(self, headers: Dict[str, str], body: bytes) -> float:
        """The politeness delay: the body's float, else the header."""
        delay: Optional[float] = None
        try:
            payload = json.loads(body.decode("utf-8"))
            if isinstance(payload, dict) and "retryAfter" in payload:
                delay = float(payload["retryAfter"])
        except (ValueError, UnicodeDecodeError):
            delay = None
        if delay is None:
            try:
                delay = float(headers.get("retry-after", "1"))
            except ValueError:
                delay = 1.0
        return max(0.0, min(delay, self.retry_after_cap))

    # ------------------------------------------------------------------
    # Descriptor / truth routes
    # ------------------------------------------------------------------
    def _get_json(self, path: str, route: str) -> dict:
        status, _headers, body = self._fetch(path, route)
        if status != 200:
            code, message = parse_error(body)
            raise RemoteSourceError(f"GET {path} → {status} {code}: {message}")
        try:
            return json.loads(body.decode("utf-8"))
        except ValueError as error:
            raise RemoteSourceError(
                f"GET {path}: invalid JSON body ({error})"
            ) from error

    def _fetch_descriptor(self, source: Optional[str]) -> SourceDescriptor:
        if source is None:
            listing = self._get_json("/sources", "sources")
            names = [item["name"] for item in listing.get("sources", [])]
            if len(names) != 1:
                raise RemoteSourceError(
                    f"service mounts {len(names)} sources {names}; "
                    f"pass source=<name>"
                )
            source = names[0]
        payload = self._get_json(f"/sources/{source}/meta", "meta")
        return SourceDescriptor.from_json(payload)

    def truth_size(self) -> int:
        """True record count, fetched once from the truth route."""
        if self._truth_size is None:
            payload = self._get_json(
                f"/sources/{self.name}/truth/size", "truth"
            )
            self._truth_size = int(payload["size"])
        return self._truth_size

    def truth_coverage(self, record_ids) -> float:
        """Fraction of the true database covered by ``record_ids``.

        Every id the crawler holds came from the server, so membership
        is implied; this is ``len(ids) / truth_size`` without another
        round trip.
        """
        size = self.truth_size()
        if size == 0:
            return 0.0
        return len(set(record_ids)) / size

    def truth_seeds(
        self, count: int = 1, seed: int = 0, min_frequency: int = 1
    ) -> List[AttributeValue]:
        """Seed values drawn server-side, mirroring the in-process CLI."""
        payload = self._get_json(
            f"/sources/{self.name}/truth/seeds?"
            + urlencode(
                {"n": count, "seed": seed, "min_frequency": min_frequency}
            ),
            "truth",
        )
        return [AttributeValue(a, v) for a, v in payload["values"]]

    def truth_sample(
        self, count: int, seed: int = 0
    ) -> List[AttributeValue]:
        """A shuffled sample of queriable values (load-test driver)."""
        payload = self._get_json(
            f"/sources/{self.name}/truth/sample?"
            + urlencode({"n": count, "seed": seed}),
            "truth",
        )
        return [AttributeValue(a, v) for a, v in payload["values"]]

    # ------------------------------------------------------------------
    # The crawler-facing API
    # ------------------------------------------------------------------
    def submit(self, query: AnyQuery, page_number: int = 1) -> ResultPage:
        """Answer one page request over the wire; one consumed round.

        Raises exactly what the in-process source raises —
        :class:`UnsupportedQueryError` without costing a round (checked
        locally against the reconstructed interface before anything is
        sent), :class:`PaginationError` with the round charged, and
        :class:`PermanentServerFailure` when retries are exhausted.
        """
        if self._closed:
            raise RemoteSourceError("client is closed")
        self.interface.validate(query)
        started = time.perf_counter()
        request = self._prefetched.pop((query, page_number), None)
        if request is not None:
            if self._prefetch is not None:
                self._prefetch.inc_key(("hit",))
        else:
            self._discard_prefetches()
            request = self._request_page(query, page_number)
        try:
            page = self._read_page(request)
        except PaginationError:
            # The in-process lane charges the round before raising (the
            # crawler had to ask to find out); mirror it exactly.
            self.log.record(wall_time=time.perf_counter() - started)
            raise
        self.log.record(wall_time=time.perf_counter() - started)
        if self.pipeline_depth > 0 and page.has_next:
            self._prefetch_ahead(query, page_number, page.num_pages)
        return page

    def submit_xml(self, query: AnyQuery, page_number: int = 1) -> str:
        """Like :meth:`submit` but returning the XML wire document."""
        from repro.server.service import render_page

        return render_page(self.submit(query, page_number))

    @property
    def rounds(self) -> int:
        """Communication rounds *consumed* by this client."""
        return self.log.rounds

    # ------------------------------------------------------------------
    # Page requests and pipelining
    # ------------------------------------------------------------------
    def _request_page(self, query: AnyQuery, page_number: int) -> _PageRequest:
        """Write the first attempt of one page request."""
        params = encode_query_params(query) + [
            ("page", str(page_number)),
            ("format", self.format),
        ]
        target = f"/sources/{self.name}/query?{urlencode(params)}"
        cached = self._etags.get(target) if self.etag_cache_size else None
        conditional = (
            [("If-None-Match", cached[0])] if cached is not None else []
        )
        # The trace context's "current query" is this page's query:
        # QueryIssued fired before submit(), and a prefetch is written
        # before submit() returns the page that precedes it.
        trace_parent = None
        if self._trace_context is not None:
            trace_parent = self._trace_context.fetch_parent(page_number)
        sent = self._send(target, conditional, trace_parent, 0)
        return _PageRequest(target, conditional, cached, trace_parent, sent)

    def _read_page(self, request: _PageRequest) -> ResultPage:
        """Read (retrying as needed) and decode one requested page."""
        target, cached = request.target, request.cached
        status, headers, body = self._fetch(
            target,
            "query",
            request.conditional,
            request.trace_parent,
            sent=request.sent,
        )
        if status == 304 and cached is not None:
            # Revalidated: the cached body is byte-identical to what a
            # 200 would have carried.  submit() charges the round on
            # consumption either way.
            self._etags.move_to_end(target)
            if self._revalidated is not None:
                self._revalidated.inc_key(("reused",))
            body = cached[1]
            status = 200
        elif status == 200 and self.etag_cache_size:
            etag = headers.get("etag")
            if etag:
                self._etags[target] = (etag, body)
                self._etags.move_to_end(target)
                while len(self._etags) > self.etag_cache_size:
                    self._etags.popitem(last=False)
                if self._revalidated is not None:
                    self._revalidated.inc_key(("stored",))
        if status == 200:
            try:
                text = body.decode("utf-8")
                if self.format == "xml":
                    return parse_page(text)
                return parse_page_json(text, self._records)
            except (ValueError, SyntaxError) as error:  # bad UTF-8 or XML
                raise ProtocolError(f"GET {target}: unreadable page") from error
        code, message = parse_error(body)
        if code == "unsupported-query":
            raise UnsupportedQueryError(message)
        if code == "page-out-of-range":
            raise PaginationError(message)
        raise RemoteSourceError(f"GET {target} → {status} {code}: {message}")

    def _prefetch_ahead(
        self, query: AnyQuery, page_number: int, num_pages: int
    ) -> None:
        last = min(page_number + self.pipeline_depth, num_pages)
        for upcoming in range(page_number + 1, last + 1):
            key = (query, upcoming)
            if key not in self._prefetched:
                if self._prefetch is not None:
                    self._prefetch.inc_key(("issued",))
                self._prefetched[key] = self._request_page(query, upcoming)

    def _discard_prefetches(self) -> None:
        """Drop speculative pages the crawl will never consume.

        Each answer is read and dropped, so the server has finished
        with the request before its connection is reused.
        """
        for request in self._prefetched.values():
            if self._prefetch is not None:
                self._prefetch.inc_key(("wasted",))
            try:
                self._receive(request.sent)
            except (OSError, ReproError):
                pass  # the connection is already dropped
        self._prefetched.clear()

    # ------------------------------------------------------------------
    # Durable-runtime state (mirrors SimulatedWebDatabase)
    # ------------------------------------------------------------------
    def runtime_state(self) -> dict:
        """Only the consumed-round counter is crawl-dependent state."""
        return {"rounds": self.log.rounds}

    def load_runtime_state(self, state: dict) -> None:
        self.log.rounds = state["rounds"]

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Settle in-flight prefetches and close every connection."""
        if self._closed:
            return
        self._closed = True
        self._discard_prefetches()
        for connection in self._idle:
            connection.close()
        self._idle.clear()
        self._records.clear()

    def __enter__(self) -> "RemoteWebDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
