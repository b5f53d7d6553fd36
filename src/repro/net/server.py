"""The asyncio HTTP front end serving simulated sources.

Layering:

- :class:`SourceService` is the transport-free core: one method turns
  ``(method, target, headers, client)`` into a status/headers/body
  triple, charging communication rounds on the mounted
  :class:`~repro.server.webdb.SimulatedWebDatabase` instances, applying
  the per-client :class:`~repro.server.limits.RateLimiter`, and feeding
  a :class:`~repro.metrics.MetricsRegistry`.  Locking is sharded per
  source (requests to different sources never contend), and rendered
  result pages are cached (:mod:`repro.net.cache`) so a repeated page
  request shrinks to a dict lookup plus a round-charge under the
  source's lock; 200 responses carry strong ``ETag`` validators and
  ``If-None-Match`` revalidation answers 304 — still charging the
  communication round exactly like a full response;
- :class:`AsyncSourceServer` speaks HTTP/1.1 over
  :func:`asyncio.start_server` (stdlib only): keep-alive connections,
  a read timeout on each request head, graceful shutdown that closes
  every open socket and cancels every handler task.  Each worker of
  :class:`~repro.net.cluster.SourceCluster` (what ``repro serve``
  runs) listens through one on its own ``SO_REUSEPORT`` socket;
- :class:`ServerThread` runs an :class:`AsyncSourceServer` on a
  background thread, which is how tests and the load-test harness get
  a live service inside one process.

Politeness: when the rate limiter denies a request the response is
``429 Too Many Requests`` with a ``Retry-After`` header equal to the
limiter's actual reset time (rounded up to whole seconds, minimum 1,
as the HTTP header is integer-valued) — and the exact float is carried
in the JSON body as ``retryAfter`` for clients that can honor it more
precisely.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlsplit

from repro.core.errors import PaginationError, UnsupportedQueryError
from repro.core.table import sample_seed_values
from repro.metrics import MetricsRegistry, prometheus_text
from repro.net.cache import (
    DEFAULT_PAGE_CACHE_SIZE,
    CachedPage,
    PageRenderCache,
    etag_matches,
)
from repro.net.protocol import (
    FORMATS,
    ProtocolError,
    SourceDescriptor,
    decode_query_params,
    error_json,
    render_page_json,
)
from repro.server.limits import RateLimiter
from repro.server.service import render_page

#: Histogram bounds tuned for localhost-to-LAN request latencies.
LATENCY_BUCKETS = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
)

_STATUS_REASONS = {
    200: "OK",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


@dataclass
class Response:
    """One HTTP response, transport-agnostic."""

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: List[Tuple[str, str]] = field(default_factory=list)

    @classmethod
    def json(cls, payload, status: int = 200) -> "Response":
        return cls(
            status,
            json.dumps(payload, sort_keys=True).encode("utf-8"),
        )

    @classmethod
    def error(
        cls, status: int, code: str, message: str, **extra
    ) -> "Response":
        return cls(status, error_json(code, message, **extra).encode("utf-8"))


class SourceService:
    """Routes requests onto mounted simulated sources.

    Parameters
    ----------
    sources:
        ``name -> SimulatedWebDatabase``; names appear in URLs, so keep
        them URL-friendly (the CLI uses dataset names).
    rate_limiter:
        Per-client request quota applied to the ``query`` route only
        (politeness governs queries, not metadata probes).  ``None``
        admits everything.
    registry:
        Telemetry registry behind ``/metrics``; a private one is
        created when omitted.
    expose_truth:
        Serve the ``truth/*`` ground-truth routes (experiment harnesses
        and the load-test driver need them; a hardened deployment
        seals them).
    page_cache_size:
        Bound (entries) of the rendered-page LRU
        (:class:`~repro.net.cache.PageRenderCache`).  0 disables
        caching; ``ETag``/``If-None-Match`` handling stays on either
        way.
    """

    def __init__(
        self,
        sources: Mapping[str, object],
        rate_limiter: Optional[RateLimiter] = None,
        registry: Optional[MetricsRegistry] = None,
        expose_truth: bool = True,
        page_cache_size: int = DEFAULT_PAGE_CACHE_SIZE,
    ) -> None:
        if not sources:
            raise ValueError("at least one source must be mounted")
        self.sources = dict(sources)
        self.rate_limiter = rate_limiter
        self.registry = registry if registry is not None else MetricsRegistry()
        self.expose_truth = expose_truth
        # Locking is sharded per source: SimulatedWebDatabase's order
        # cache and communication log are not thread-safe, and a
        # cluster worker's control thread reads every source's round
        # count (snapshots, the debug plane) while the worker's event
        # loop serves requests.  Requests to *different* sources share
        # no mutable state, so they never contend; the loop itself is
        # single-threaded, so serving alone never contends either.
        self._locks: Dict[str, threading.RLock] = {
            name: threading.RLock() for name in self.sources
        }
        self.page_cache = (
            PageRenderCache(page_cache_size, registry=self.registry)
            if page_cache_size
            else None
        )
        self._requests = self.registry.counter(
            "net_server_requests_total",
            "HTTP requests served, by route and status.",
            labels=("route", "status"),
        )
        self._latency = self.registry.histogram(
            "net_server_request_seconds",
            "Service-side request handling latency.",
            labels=("route",),
            buckets=LATENCY_BUCKETS,
        )
        self._rate_limited = self.registry.counter(
            "net_server_rate_limited_total",
            "Query requests denied by the rate limiter.",
            labels=("banned",),
        )
        self._rounds = self.registry.gauge(
            "net_server_rounds_total",
            "Communication rounds charged per mounted source.",
            labels=("source",),
        )
        self.started_at = time.time()
        #: Optional :class:`~repro.obs.server_trace.ServerSpanTracer`;
        #: when set, traced query requests are recorded as span groups.
        self.tracer = None
        #: Optional ``callable(kind, arg) -> payload | None`` supplying
        #: *merged* observability payloads on a cluster (kinds:
        #: ``"metrics"``, ``"status"``, ``"spans"``).  ``None`` return
        #: degrades to this worker's local view — the debug plane must
        #: answer even when the control plane is busy.
        self.debug_provider = None
        #: ``{"mode": ..., "workers": ...}`` identity for ``/debug/*``;
        #: ``None`` means a standalone single-process service.
        self.cluster_info = None
        self.requests_handled = 0

    # ------------------------------------------------------------------
    def handle(
        self,
        method: str,
        target: str,
        headers: Mapping[str, str],
        client: str,
    ) -> Response:
        """Serve one request; never raises."""
        started = time.perf_counter()
        route = "other"
        try:
            route, response = self._dispatch(method, target, headers, client)
        except Exception as error:  # noqa: BLE001 - the wire gets a 500
            response = Response.error(500, "internal", f"{type(error).__name__}: {error}")
        self._requests.inc_key((route, str(response.status)))
        self._latency.observe_key((route,), time.perf_counter() - started)
        self.requests_handled += 1
        return response

    def _dispatch(
        self,
        method: str,
        target: str,
        headers: Mapping[str, str],
        client: str,
    ) -> Tuple[str, Response]:
        if method not in ("GET", "HEAD"):
            return "other", Response.error(
                405, "method-not-allowed", f"{method} is not supported"
            )
        split = urlsplit(target)
        path = unquote(split.path)
        params = parse_qs(split.query, keep_blank_values=True)
        if path in ("/", ""):
            return "index", self._index()
        if path == "/healthz":
            return "healthz", Response.json({"ok": True})
        if path == "/metrics":
            return "metrics", self._metrics()
        if path == "/debug/health":
            return "debug", self._debug_health()
        if path == "/debug/status":
            return "debug", self._debug_status()
        if path == "/debug/spans":
            return "debug", self._debug_spans(params)
        if path == "/sources":
            return "sources", self._source_list()
        parts = [p for p in path.split("/") if p]
        if len(parts) >= 2 and parts[0] == "sources":
            name = parts[1]
            source = self.sources.get(name)
            if source is None:
                return "meta", Response.error(
                    404, "not-found", f"no source named {name!r}"
                )
            tail = parts[2:]
            if tail == ["meta"]:
                return "meta", Response.json(
                    SourceDescriptor.for_source(name, source).to_json()
                )
            if tail == ["query"]:
                return "query", self._query(
                    name, source, params, headers, client
                )
            if tail and tail[0] == "truth":
                if not self.expose_truth:
                    return "truth", Response.error(
                        404, "not-found", "truth routes are sealed"
                    )
                return "truth", self._truth(name, source, tail[1:], params)
        return "other", Response.error(404, "not-found", f"no route for {path}")

    # ------------------------------------------------------------------
    def _index(self) -> Response:
        return Response.json(
            {
                "service": "repro-net/1",
                "sources": sorted(self.sources),
                "routes": [
                    "/healthz",
                    "/metrics",
                    "/sources",
                    "/sources/<name>/meta",
                    "/sources/<name>/query",
                ],
            }
        )

    def _source_list(self) -> Response:
        # Descriptors read only immutable configuration — no lock.
        payload = {
            "sources": [
                SourceDescriptor.for_source(name, source).to_json()
                for name, source in sorted(self.sources.items())
            ]
        }
        return Response.json(payload)

    def _metrics(self) -> Response:
        # On a cluster, a scrape lands on whichever worker the kernel
        # hashed the connection to; serving that worker's registry
        # alone under-reports every counter.  The debug provider asks
        # the parent for the merged registry; a standalone service (or
        # a provider timeout) renders the local one.
        merged_state = None
        if self.debug_provider is not None:
            merged_state = self.debug_provider("metrics", None)
        if merged_state is not None:
            registry = MetricsRegistry()
            registry.merge(merged_state)
            text = prometheus_text(registry)
        else:
            # Snapshot under each source's lock (a couple of int
            # reads), serialize after — a scrape must never stall
            # query traffic behind Prometheus text rendering.
            for name, source in sorted(self.sources.items()):
                with self._locks[name]:
                    rounds = source.rounds
                self._rounds.set_key((name,), rounds)
            text = prometheus_text(self.registry)
        return Response(
            200,
            text.encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    # ------------------------------------------------------------------
    # The ops/debug surface (see DESIGN.md §10)
    # ------------------------------------------------------------------
    def _debug_health(self) -> Response:
        # Answered entirely from local state — health must stay cheap
        # and can never deadlock behind the control plane.
        info = self.cluster_info or {}
        return Response.json(
            {
                "ok": True,
                "mode": info.get("mode", "single"),
                "workers": info.get("workers", 1),
            }
        )

    def local_status(self) -> dict:
        """This worker's status payload (also the cluster merge input)."""
        per_source: Dict[str, int] = {}
        for name, source in sorted(self.sources.items()):
            with self._locks[name]:
                per_source[name] = source.rounds
        info = self.cluster_info or {}
        payload = {
            "ok": True,
            "mode": info.get("mode", "single"),
            "workers": info.get("workers", 1),
            "uptime_s": round(time.time() - self.started_at, 3),
            "requests_handled": self.requests_handled,
            "rounds": {
                "total": sum(per_source.values()),
                "per_source": per_source,
            },
        }
        if self.page_cache is not None:
            hits, misses, evictions, entries = self.page_cache.stats()
            payload["cache"] = {
                "hits": hits,
                "misses": misses,
                "evictions": evictions,
                "entries": entries,
            }
        if self.rate_limiter is not None:
            state = self.rate_limiter.runtime_state()
            payload["limiter"] = {
                "denials": state["denials"],
                "bans_issued": state["bans_issued"],
            }
        spans = {"tracing": self.tracer is not None}
        if self.tracer is not None:
            spans.update(self.tracer.stats())
        payload["spans"] = spans
        return payload

    def _debug_status(self) -> Response:
        merged = None
        if self.debug_provider is not None:
            merged = self.debug_provider("status", None)
        if merged is not None:
            payload = dict(merged)
            payload["merged"] = True
        else:
            payload = self.local_status()
            payload["merged"] = False
        return Response.json(payload)

    def _debug_spans(self, params: Mapping[str, List[str]]) -> Response:
        from repro.obs.server_trace import group_public

        try:
            limit = int(params.get("n", ["50"])[0])
        except ValueError:
            limit = 50
        limit = max(1, min(limit, 500))
        merged = None
        if self.debug_provider is not None:
            merged = self.debug_provider("spans", limit)
        if merged is not None:
            payload = dict(merged)
        elif self.tracer is not None:
            meta = self.tracer.stats()
            payload = {
                "tracing": True,
                "count": meta["groups"],
                "dropped": meta["dropped"],
                "recent": [
                    group_public(group)
                    for group in self.tracer.tail(limit)
                ],
            }
        else:
            payload = {
                "tracing": False,
                "count": 0,
                "dropped": 0,
                "recent": [],
            }
        return Response.json(payload)

    def _query(
        self,
        name: str,
        source,
        params: Mapping[str, List[str]],
        headers: Mapping[str, str],
        client: str,
    ) -> Response:
        rec = (
            self.tracer.begin(headers.get("x-repro-trace"))
            if self.tracer is not None
            else None
        )
        response = self._query_inner(name, source, params, headers, client, rec)
        if rec is not None:
            rec.source = name
            self.tracer.commit(rec, response.status)
        return response

    def _query_inner(
        self,
        name: str,
        source,
        params: Mapping[str, List[str]],
        headers: Mapping[str, str],
        client: str,
        rec=None,
    ) -> Response:
        """The query pipeline, with per-phase span recording.

        Phase spans (limiter → parse → cache → render → serialize) are
        emitted in execution order; error paths simply stop recording
        where the pipeline stopped.  Phase *attrs* carry only
        workload-determined values — notably, the cache phase does NOT
        say hit/miss, and a hit's ``render`` span reports the cached
        entry it reused — because hit/miss placement is a worker-local
        accident and the merged trace must be byte-identical at any
        worker count.  Hit ratios live in metrics, where they belong.
        """
        if self.rate_limiter is not None:
            if rec is not None:
                rec.start("limiter")
            key = headers.get("x-client-id") or client
            decision = self.rate_limiter.check(f"{name}:{key}")
            if rec is not None:
                rec.end()
            if not decision.allowed:
                self._rate_limited.inc_key((str(decision.banned).lower(),))
                response = Response.error(
                    429,
                    "rate-limited",
                    (
                        "temporarily banned"
                        if decision.banned
                        else "request quota exceeded"
                    ),
                    retryAfter=round(decision.retry_after, 6),
                    banned=decision.banned,
                )
                response.headers.append(
                    # The header is integer-valued (RFC 9110); round up
                    # so honoring it always lands after the reset.
                    ("Retry-After", str(max(1, math.ceil(decision.retry_after))))
                )
                return response
        if rec is not None:
            rec.start("parse")
        try:
            try:
                query = decode_query_params(params)
            except ProtocolError as error:
                return Response.error(400, "bad-request", str(error))
            try:
                page_number = int(params.get("page", ["1"])[0])
            except ValueError:
                return Response.error(
                    400, "bad-request", "page must be an integer"
                )
            format = params.get("format", ["json"])[0]
            if format not in FORMATS:
                return Response.error(
                    400, "bad-request", f"format must be one of {FORMATS}"
                )
        finally:
            if rec is not None:
                rec.end()
        lock = self._locks[name]
        cache = self.page_cache
        cache_key = (name, format, page_number, query)
        if rec is not None and cache is not None:
            rec.start("cache")
        entry = cache.get(cache_key) if cache is not None else None
        if rec is not None and cache is not None:
            rec.end()
        if entry is not None:
            # Cache hit: the source's submit path is skipped entirely,
            # but the communication round is charged exactly as it
            # would have been (out-of-range answers included, matching
            # the PaginationError path).  The lock hold shrinks to this
            # one counter bump.
            with lock:
                source.log.record()
            if rec is not None:
                rec.mark(
                    "render", records=entry.records, bytes=len(entry.body)
                )
        else:
            if rec is not None:
                rec.start("render")
            try:
                with lock:
                    page = source.submit(query, page_number)
            except UnsupportedQueryError as error:
                # No round was charged (the form rejected the query
                # before submission) — never cached, so a hit can
                # never charge a round the in-process lane would not.
                return Response.error(400, "unsupported-query", str(error))
            except PaginationError as error:
                # The round was charged (the client had to ask to find
                # out), exactly like the in-process lane.  The answer
                # is as pure as a result page, so cache it too.
                response = Response.error(
                    404, "page-out-of-range", str(error)
                )
                entry = CachedPage.build(
                    404, response.content_type, response.body, records=0
                )
                if cache is not None:
                    cache.put(cache_key, entry)
                if rec is not None:
                    rec.end(records=0, bytes=len(entry.body))
            else:
                # Render outside the lock: serialization is pure.
                if format == "xml":
                    body = render_page(page).encode("utf-8")
                    content_type = "application/xml; charset=utf-8"
                else:
                    body = render_page_json(page).encode("utf-8")
                    content_type = "application/json"
                entry = CachedPage.build(
                    200, content_type, body, records=len(page.records)
                )
                if cache is not None:
                    cache.put(cache_key, entry)
                if rec is not None:
                    rec.end(
                        records=entry.records, bytes=len(entry.body)
                    )
        if rec is not None:
            rec.start("serialize")
        try:
            if entry.status == 200:
                if etag_matches(headers.get("if-none-match", ""), entry.etag):
                    # Round already charged above — a 304 costs the
                    # client a communication round like any other page
                    # request.
                    return Response(
                        304, b"", entry.content_type,
                        headers=[("ETag", entry.etag)],
                    )
                return Response(
                    entry.status,
                    entry.body,
                    entry.content_type,
                    headers=[("ETag", entry.etag)],
                )
            return Response(entry.status, entry.body, entry.content_type)
        finally:
            if rec is not None:
                rec.end()

    def _truth(
        self,
        name: str,
        source,
        tail: List[str],
        params: Mapping[str, List[str]],
    ) -> Response:
        if tail == ["size"]:
            with self._locks[name]:
                return Response.json({"size": source.truth_size()})
        if tail in (["seeds"], ["sample"]):
            try:
                count = int(params.get("n", ["1"])[0])
                seed = int(params.get("seed", ["0"])[0])
                min_frequency = int(params.get("min_frequency", ["1"])[0])
            except ValueError:
                return Response.error(
                    400, "bad-request", "n/seed/min_frequency must be integers"
                )
            count = max(1, min(count, 10_000))
            with self._locks[name]:
                if tail == ["seeds"]:
                    # Mirrors the in-process lane exactly: CLI crawls
                    # draw seeds with sample_seed_values, so a remote
                    # crawl at the same seed starts identically.
                    values = sample_seed_values(
                        source.table,
                        count,
                        random.Random(seed),
                        min_frequency=min_frequency,
                    )
                else:
                    rng = random.Random(seed)
                    queriable = set(source.table.schema.queriable)
                    pool = [
                        pair
                        for pair in source.table.distinct_values()
                        if pair.attribute in queriable
                    ]
                    rng.shuffle(pool)
                    values = pool[:count]
            return Response.json(
                {"values": [[v.attribute, v.value] for v in values]}
            )
        return Response.error(
            404, "not-found", f"no truth route for {'/'.join(tail)}"
        )


# ----------------------------------------------------------------------
# asyncio transport
# ----------------------------------------------------------------------
class AsyncSourceServer:
    """HTTP/1.1 over ``asyncio.start_server`` — stdlib only.

    Supports GET/HEAD with keep-alive.  ``close()`` is graceful and
    complete: the listening socket stops, every open connection is
    closed, and every per-connection task is awaited — the "no leaked
    tasks/sockets" guarantee the CI smoke job asserts.
    """

    MAX_REQUEST_LINE = 16 * 1024
    MAX_HEADER_BYTES = 64 * 1024

    def __init__(
        self,
        service: SourceService,
        host: str = "127.0.0.1",
        port: int = 0,
        idle_timeout: float = 30.0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.idle_timeout = idle_timeout
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self._active = service.registry.gauge(
            "net_server_active_connections",
            "Open client connections right now.",
        )
        self.requests_served = 0

    async def start(self, sock=None) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port).

        Pass a pre-bound listening ``sock`` to serve on a socket the
        caller configured (each cluster worker binds its own
        ``SO_REUSEPORT`` socket so sibling workers share one port).
        """
        if sock is not None:
            self._server = await asyncio.start_server(
                self._on_connection, sock=sock
            )
        else:
            self._server = await asyncio.start_server(
                self._on_connection, self.host, self.port
            )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in list(self._connections):
            writer.close()
        # Closing the writers unblocks their handler coroutines; give
        # the loop a tick to let them finish and deregister.
        for _ in range(10):
            if not self._connections:
                break
            await asyncio.sleep(0.01)

    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        self._active.set_key((), len(self._connections))
        peer = writer.get_extra_info("peername")
        client = peer[0] if isinstance(peer, tuple) else str(peer)
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, target, headers = request
                response = self.service.handle(method, target, headers, client)
                keep_alive = headers.get("connection", "").lower() != "close"
                self._write_response(
                    writer, response, head_only=(method == "HEAD"),
                    keep_alive=keep_alive,
                )
                await writer.drain()
                self.requests_served += 1
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            asyncio.TimeoutError,
            TimeoutError,
        ):
            pass
        finally:
            self._connections.discard(writer)
            self._active.set_key((), len(self._connections))
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str]]]:
        """The next request head, or ``None`` to close the connection.

        The whole head, request line and headers together, must arrive
        within ``idle_timeout``.  A head that stalls, breaks a size
        limit, or does not parse closes the connection unanswered.
        """
        try:
            return await asyncio.wait_for(
                self._read_head(reader), timeout=self.idle_timeout
            )
        except (asyncio.TimeoutError, TimeoutError, ValueError):
            # ValueError: a request line without three parts, or a line
            # past the stream's buffer limit (64 KiB), which readline()
            # reports as ValueError.
            return None

    async def _read_head(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str]]]:
        line = await reader.readline()
        if not line or len(line) > self.MAX_REQUEST_LINE:
            return None
        method, target, _version = line.decode("latin-1").split(None, 2)
        headers: Dict[str, str] = {}
        total = 0
        while True:
            line = await reader.readline()
            total += len(line)
            if total > self.MAX_HEADER_BYTES:
                return None
            if line in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return method.upper(), target, headers

    def _write_response(
        self,
        writer: asyncio.StreamWriter,
        response: Response,
        head_only: bool,
        keep_alive: bool,
    ) -> None:
        reason = _STATUS_REASONS.get(response.status, "Unknown")
        lines = [
            f"HTTP/1.1 {response.status} {reason}",
            f"Content-Type: {response.content_type}",
            f"Content-Length: {len(response.body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in response.headers:
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head if head_only else head + response.body)


# ----------------------------------------------------------------------
# Background-thread wrapper around the asyncio server
# ----------------------------------------------------------------------
class ServerThread:
    """Run an :class:`AsyncSourceServer` on a dedicated thread.

    ``start()`` blocks until the socket is bound and returns the base
    URL; ``stop()`` shuts the server down cleanly and joins the
    thread.  Context-manager friendly::

        with ServerThread(service) as url:
            crawl(RemoteWebDatabase(url))
    """

    def __init__(
        self,
        service: SourceService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.server = AsyncSourceServer(service, host=host, port=port)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def start(self) -> str:
        self._thread = threading.Thread(
            target=self._run, name="repro-net-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise RuntimeError("server thread failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"server failed to bind: {self._startup_error}"
            ) from self._startup_error
        return self.server.url

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self.server.start())
        except BaseException as error:  # noqa: BLE001 - surfaced to start()
            self._startup_error = error
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self.server.close())
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def stop(self) -> None:
        if self._loop is None or self._thread is None:
            return
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        self._loop = None
        self._thread = None

    def __enter__(self) -> str:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
