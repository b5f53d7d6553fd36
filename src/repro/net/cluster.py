"""Multi-core serving: N worker processes sharing one port and one set of tables.

:class:`SourceCluster` is how the package serves sources over HTTP,
from one worker (``repro serve``'s default) to one per core, without
changing what the wire says.  Each worker process runs its own event
loop and :class:`~repro.net.server.SourceService`, binds its *own*
socket to the shared ``(host, port)`` with ``SO_REUSEPORT``, and the
kernel load-balances accepted connections across workers.  Each worker
rebuilds every source from a :class:`SourceRecipe` over the caller's
own :class:`~repro.core.table.RelationalTable` (inherited under
``fork``, pickled once per worker under ``spawn`` and ``forkserver``),
so every worker answers from the one table implementation.  Serving
needs ``SO_REUSEPORT``; where it is missing (Windows) the constructor
raises ``RuntimeError``.

The control plane: :meth:`SourceCluster.snapshot` collects per-worker
state **in fixed worker order** and :class:`ClusterSnapshot` merges it
deterministically — counters and histograms add, per-source round
totals sum, rate-limiter windows concatenate sorted — so
:meth:`ClusterSnapshot.accounting` is byte-identical for the same
workload at any worker count (it reports only placement-invariant
facts: rounds per source, requests by route and status, limiter
totals — never per-worker cache hit counts or latency buckets, which
depend on which worker a connection landed on).

Politeness caveat: each worker enforces the rate limit independently
(limiter state is process-local), so a clustered deployment's
effective quota is up to ``workers ×`` the configured one.  See
:class:`~repro.server.limits.RateLimiterSpec`.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.table import RelationalTable
from repro.metrics import MetricsRegistry
from repro.net.server import AsyncSourceServer, SourceService
from repro.obs.server_trace import (
    ServerSpanTracer,
    group_public,
    merge_groups,
    write_server_trace,
)
from repro.server.interface import QueryInterface
from repro.server.limits import (
    RateLimiter,
    RateLimiterSpec,
    ResultLimitPolicy,
    merge_runtime_states,
)
from repro.server.webdb import SimulatedWebDatabase

#: How long start()/stop()/snapshot() wait on one worker before giving up.
CONTROL_TIMEOUT = 30.0

#: How long a worker's debug plane waits for the parent's merged
#: payload before degrading to its local view.
DEBUG_TIMEOUT = 10.0


def reuseport_supported() -> bool:
    """Whether this platform can share a listening port across sockets."""
    return hasattr(socket, "SO_REUSEPORT")


def _family(host: str) -> int:
    """The address family of a host to bind: IPv6 for an IPv6 literal."""
    return socket.AF_INET6 if ":" in host else socket.AF_INET


def _reuseport_socket(host: str, port: int) -> socket.socket:
    """A bound, listening TCP socket with ``SO_REUSEPORT`` set.

    ``SO_REUSEADDR`` too, as :func:`asyncio.start_server` sets it: the
    connections it accepts inherit it, so a server restarted on the
    port binds past the previous run's closing connections.
    """
    sock = socket.socket(_family(host), socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
        sock.listen(128)
        sock.setblocking(False)
    except BaseException:
        sock.close()
        raise
    return sock


# ----------------------------------------------------------------------
# What crosses the process boundary
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SourceRecipe:
    """Everything a worker needs to rebuild one mounted source.

    The recipe holds the caller's table itself and every constructor
    setting of its :class:`~repro.server.webdb.SimulatedWebDatabase`.
    Per-worker rebuild is what makes the lane correct: the
    communication log and order cache are mutable and must not be
    shared across processes, so :meth:`build` starts them fresh.
    """

    name: str
    table: RelationalTable
    page_size: int
    limit_policy: ResultLimitPolicy
    report_total: bool
    interface: QueryInterface
    order_cache_size: int

    @classmethod
    def from_source(
        cls, name: str, source: SimulatedWebDatabase
    ) -> "SourceRecipe":
        return cls(
            name=name,
            table=source.table,
            page_size=source.page_size,
            limit_policy=source.limit_policy,
            report_total=source.report_total,
            interface=source.interface,
            order_cache_size=source.order_cache_size,
        )

    def build(self) -> SimulatedWebDatabase:
        return SimulatedWebDatabase(
            self.table,
            page_size=self.page_size,
            limit_policy=self.limit_policy,
            report_total=self.report_total,
            interface=self.interface,
            order_cache_size=self.order_cache_size,
        )


@dataclass(frozen=True)
class ClusterConfig:
    """Picklable worker configuration (one shared by all workers)."""

    host: str
    port: int
    expose_truth: bool = True
    page_cache_size: int = 4096
    idle_timeout: float = 30.0
    limiter_spec: Optional[RateLimiterSpec] = None
    trace_spans: bool = False
    trace_timings: bool = True
    workers: int = 1


def _service_snapshot(service: SourceService, requests_served: int) -> dict:
    """One worker's accounting state, JSON/pickle-safe."""
    rounds: Dict[str, int] = {}
    for name in sorted(service.sources):
        with service._locks[name]:
            rounds[name] = service.sources[name].rounds
    limiter = service.rate_limiter
    cache = service.page_cache
    spans = {"tracing": service.tracer is not None}
    if service.tracer is not None:
        spans.update(service.tracer.stats())
    return {
        "registry": service.registry.state_dict(),
        "rounds": rounds,
        "limiter": limiter.runtime_state() if limiter is not None else None,
        "cache": cache.stats() if cache is not None else None,
        "requests_served": requests_served,
        "uptime_s": round(time.time() - service.started_at, 3),
        "spans": spans,
    }


# ----------------------------------------------------------------------
# Worker process entry point (module-level: spawn-compatible)
# ----------------------------------------------------------------------
def _worker_main(
    config: ClusterConfig,
    recipes: List[SourceRecipe],
    conn,
    inherited_fds: Tuple[int, ...] = (),
    uplink=None,
) -> None:
    # Under the fork start method the worker inherits the parent's
    # descriptors; close them first thing.  The port-resolving
    # placeholder socket is a member of the SO_REUSEPORT group with
    # nobody accepting on it — the kernel would hash a share of
    # incoming connections onto it and they would hang forever.  The
    # parent's ends of the control pipes would keep those pipes open
    # after the parent dies, so the worker would never read EOF and
    # would outlive it, still serving the port.
    for fd in inherited_fds:
        try:
            os.close(fd)
        except OSError:  # pragma: no cover - already closed
            pass
    # The parent coordinates shutdown through the control pipe; a
    # terminal Ctrl-C hits the whole process group, so workers must not
    # die to SIGINT mid-handshake.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    sources = {recipe.name: recipe.build() for recipe in recipes}
    limiter = (
        config.limiter_spec.build() if config.limiter_spec is not None else None
    )
    service = SourceService(
        sources,
        rate_limiter=limiter,
        registry=MetricsRegistry(),
        expose_truth=config.expose_truth,
        page_cache_size=config.page_cache_size,
    )
    tracer = (
        ServerSpanTracer(include_timings=config.trace_timings)
        if config.trace_spans
        else None
    )
    service.tracer = tracer
    service.cluster_info = {"mode": "process", "workers": config.workers}
    if uplink is not None:
        # The debug plane: /metrics and /debug/* ask the parent for the
        # *merged* cluster view through this second pipe.  One request
        # at a time per worker; the parent's broker thread answers.
        # Blocking the worker's event loop for the round trip is fine —
        # the worker's own control thread stays free, so the parent can
        # still snapshot this worker while it waits (no deadlock), and
        # a dead/slow parent degrades to the local view after
        # DEBUG_TIMEOUT (pipe closure returns immediately).
        uplink_lock = threading.Lock()

        def debug_provider(kind: str, arg):
            with uplink_lock:
                try:
                    uplink.send(("merged?", kind, arg))
                    if uplink.poll(DEBUG_TIMEOUT):
                        reply_kind, payload = uplink.recv()
                        if reply_kind == kind:
                            return payload
                except (EOFError, OSError, BrokenPipeError):
                    pass
                return None

        service.debug_provider = debug_provider
    server = AsyncSourceServer(
        service,
        host=config.host,
        port=config.port,
        idle_timeout=config.idle_timeout,
    )
    loop = asyncio.new_event_loop()
    asyncio.set_event_loop(loop)
    try:
        sock = _reuseport_socket(config.host, config.port)
        loop.run_until_complete(server.start(sock=sock))
    except BaseException as error:  # noqa: BLE001 - surfaced to the parent
        conn.send(("error", f"{type(error).__name__}: {error}"))
        conn.close()
        loop.close()
        return

    def control() -> None:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                message = ("stop",)
            if message[0] == "snapshot":
                conn.send(
                    (
                        "snapshot",
                        _service_snapshot(service, server.requests_served),
                    )
                )
            elif message[0] == "spans":
                limit = message[1] if len(message) > 1 else 50
                conn.send(
                    (
                        "spans",
                        {
                            "stats": (
                                tracer.stats()
                                if tracer is not None
                                else {"groups": 0, "dropped": 0}
                            ),
                            "tail": (
                                tracer.tail(limit)
                                if tracer is not None
                                else []
                            ),
                        },
                    )
                )
            elif message[0] == "stop":
                loop.call_soon_threadsafe(loop.stop)
                return

    controller = threading.Thread(
        target=control, name="repro-net-worker-control", daemon=True
    )
    controller.start()
    conn.send(("ready", server.port))
    try:
        loop.run_forever()
    finally:
        loop.run_until_complete(server.close())
        loop.run_until_complete(loop.shutdown_asyncgens())
        loop.close()
    try:
        final = _service_snapshot(service, server.requests_served)
        if tracer is not None:
            # Span groups ship home with the final snapshot; the parent
            # merges every worker's groups placement-invariantly.
            final["trace_groups"] = tracer.payload()
        conn.send(("stopped", final))
        conn.close()
    except (BrokenPipeError, OSError):  # pragma: no cover - parent died
        pass


# ----------------------------------------------------------------------
# Merged accounting
# ----------------------------------------------------------------------
class ClusterSnapshot:
    """Per-worker accounting payloads, merged in fixed worker order."""

    def __init__(self, payloads: List[dict]) -> None:
        self.payloads = list(payloads)

    def merged_registry(self) -> MetricsRegistry:
        """Fold every worker registry (worker order → deterministic)."""
        merged = MetricsRegistry()
        for payload in self.payloads:
            merged.merge(payload["registry"])
        return merged

    @property
    def rounds(self) -> Dict[str, int]:
        """Communication rounds charged, summed per source."""
        totals: Dict[str, int] = {}
        for payload in self.payloads:
            for name, count in payload["rounds"].items():
                totals[name] = totals.get(name, 0) + count
        return dict(sorted(totals.items()))

    @property
    def requests_served(self) -> int:
        return sum(payload["requests_served"] for payload in self.payloads)

    @property
    def cache_stats(self) -> Optional[Tuple[int, int, int, int]]:
        """Summed ``(hits, misses, evictions, entries)`` across workers.

        Informational only — *not* part of :meth:`accounting`, because
        the split of one workload into hits and misses depends on which
        worker each connection landed on.
        """
        stats = [p["cache"] for p in self.payloads if p["cache"] is not None]
        if not stats:
            return None
        return tuple(sum(column) for column in zip(*stats))  # type: ignore[return-value]

    def limiter_state(self) -> Optional[dict]:
        """Merged rate-limiter runtime state (see ``merge_runtime_states``)."""
        states = [
            payload["limiter"]
            for payload in self.payloads
            if payload["limiter"] is not None
        ]
        if not states:
            return None
        return merge_runtime_states(states)

    def merged_status(self, mode: str, workers: int) -> dict:
        """The merged ``/debug/status`` payload (cluster-wide totals)."""
        payload = {
            "ok": True,
            "mode": mode,
            "workers": workers,
            "uptime_s": max(
                (p.get("uptime_s", 0.0) for p in self.payloads),
                default=0.0,
            ),
            "requests_handled": self.requests_served,
            "rounds": {
                "total": sum(self.rounds.values()),
                "per_source": self.rounds,
            },
        }
        cache = self.cache_stats
        if cache is not None:
            payload["cache"] = dict(
                zip(("hits", "misses", "evictions", "entries"), cache)
            )
        limiter = self.limiter_state()
        if limiter is not None:
            payload["limiter"] = {
                "denials": limiter["denials"],
                "bans_issued": limiter["bans_issued"],
            }
        spans = [p.get("spans") for p in self.payloads]
        spans = [s for s in spans if s]
        payload["spans"] = {
            "tracing": any(s.get("tracing") for s in spans),
            "groups": sum(s.get("groups", 0) for s in spans),
            "dropped": sum(s.get("dropped", 0) for s in spans),
        }
        return payload

    def accounting(self) -> dict:
        """The placement-invariant aggregate report.

        Contains only facts that depend on the workload, never on how
        connections were balanced across workers: the same crawl
        against 1 or 4 workers produces the identical dict (tests pin
        this).  Cache hit/miss splits and latency buckets are excluded
        by design.
        """
        registry = self.merged_registry()
        requests: Dict[str, float] = {}
        counter = registry.get("net_server_requests_total")
        if counter is not None:
            for key, value in counter.series():
                requests["|".join(key)] = value
        limited: Dict[str, float] = {}
        rate_counter = registry.get("net_server_rate_limited_total")
        if rate_counter is not None:
            for key, value in rate_counter.series():
                limited["|".join(key)] = value
        limiter = self.limiter_state()
        return {
            "rounds": self.rounds,
            "requests": dict(sorted(requests.items())),
            "rate_limited": dict(sorted(limited.items())),
            "denials": limiter["denials"] if limiter else 0,
            "bans_issued": limiter["bans_issued"] if limiter else 0,
        }


# ----------------------------------------------------------------------
# The cluster
# ----------------------------------------------------------------------
class SourceCluster:
    """Serve ``sources`` on one port from N workers (see module docs).

    Parameters
    ----------
    sources:
        ``name -> SimulatedWebDatabase``, exactly as for
        :class:`~repro.net.server.SourceService`.  Each worker rebuilds
        its own instances from :class:`SourceRecipe` over the same
        tables; the caller's instances are left untouched.
    workers:
        Worker processes to run, each with one event loop.  1 is what
        ``repro serve`` runs by default.
    mode:
        Only ``"process"`` (the default) is accepted; any other value
        raises ``ValueError``.
    rate_limiter:
        A :class:`~repro.server.limits.RateLimiterSpec`; each worker
        builds its own limiter from it.  A live ``RateLimiter`` is
        taken as its spec (limiters do not cross processes).
    trace_spans:
        Record server-side request spans (see
        :mod:`repro.obs.server_trace`) on every worker; at ``stop()``
        the groups are merged placement-invariantly into
        :attr:`trace_groups` (and written to ``trace_path`` if set).
    trace_timings:
        Attach wall/CPU durations to recorded spans.  Turn off for
        canonical, byte-comparable traces.
    trace_path:
        Where to write the merged server-side span JSONL at ``stop()``.
    """

    def __init__(
        self,
        sources: Mapping[str, SimulatedWebDatabase],
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        mode: str = "process",
        rate_limiter: Optional[RateLimiterSpec] = None,
        expose_truth: bool = True,
        page_cache_size: int = 4096,
        idle_timeout: float = 30.0,
        trace_spans: bool = False,
        trace_timings: bool = True,
        trace_path=None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if mode != "process":
            raise ValueError(f"unknown cluster mode {mode!r}")
        if not reuseport_supported():
            raise RuntimeError(
                "mode='process' needs SO_REUSEPORT, unavailable here"
            )
        if isinstance(rate_limiter, RateLimiter):  # be forgiving
            rate_limiter = RateLimiterSpec.from_limiter(rate_limiter)
        self.sources = dict(sources)
        self.host = host
        self.port = port
        self.workers = workers
        self.mode = mode
        self.limiter_spec = rate_limiter
        self.expose_truth = expose_truth
        self.page_cache_size = page_cache_size
        self.idle_timeout = idle_timeout
        self.trace_spans = trace_spans
        self.trace_timings = trace_timings
        self.trace_path = trace_path
        #: Merged, placement-invariantly sorted span groups, populated
        #: at ``stop()`` when ``trace_spans`` is on.
        self.trace_groups: List[dict] = []
        self._started = False
        self._stopped = False
        self._processes: List[multiprocessing.Process] = []
        self._pipes: List = []
        self._uplinks: List = []
        #: Serializes control-pipe transactions: the public snapshot(),
        #: the broker's merged-payload queries, and shutdown all
        #: request/reply on the same pipes.
        self._control_lock = threading.Lock()
        self._broker: Optional[threading.Thread] = None
        self._broker_stop = threading.Event()
        self.final_snapshot: Optional[ClusterSnapshot] = None

    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        host = f"[{self.host}]" if ":" in self.host else self.host
        return f"http://{host}:{self.port}"

    def start(self) -> str:
        if self._started:
            raise RuntimeError("cluster already started")
        self._started = True
        self._start_processes()
        return self.url

    def stop(self) -> Optional[ClusterSnapshot]:
        """Shut everything down; returns the final merged snapshot."""
        if not self._started or self._stopped:
            return self.final_snapshot
        self._stopped = True
        self._stop_processes()
        return self.final_snapshot

    def snapshot(self) -> ClusterSnapshot:
        """Collect live per-worker accounting, in worker order."""
        if not self._started or self._stopped:
            raise RuntimeError("cluster is not running")
        with self._control_lock:
            payloads = []
            for conn in self._pipes:
                conn.send(("snapshot",))
            for index, conn in enumerate(self._pipes):
                kind, payload = self._recv(conn, index)
                if kind != "snapshot":
                    raise RuntimeError(
                        f"worker {index} answered {kind!r} to snapshot"
                    )
                payloads.append(payload)
        return ClusterSnapshot(payloads)

    def __enter__(self) -> str:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Worker processes
    # ------------------------------------------------------------------
    def _start_processes(self) -> None:
        # A plain bind fails on a port another server listens on.  The
        # placeholder's SO_REUSEPORT bind alone would join that server's
        # group, and the kernel would split the connections between the
        # two; a probe bound to port 0 picks a port nobody listens on.
        with socket.socket(_family(self.host), socket.SOCK_STREAM) as probe:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            probe.bind((self.host, self.port))
            port = probe.getsockname()[1]
        # Resolve port 0 up front with a placeholder REUSEPORT socket
        # so every worker binds the same concrete port; the placeholder
        # stays open (parking the port) until all workers are ready.
        placeholder = _reuseport_socket(self.host, port)
        self.host, self.port = placeholder.getsockname()[:2]
        try:
            recipes = [
                SourceRecipe.from_source(name, source)
                for name, source in sorted(self.sources.items())
            ]
            config = ClusterConfig(
                host=self.host,
                port=self.port,
                expose_truth=self.expose_truth,
                page_cache_size=self.page_cache_size,
                idle_timeout=self.idle_timeout,
                limiter_spec=self.limiter_spec,
                trace_spans=self.trace_spans,
                trace_timings=self.trace_timings,
                workers=self.workers,
            )
            context = multiprocessing.get_context()
            # fork hands every worker the parent's descriptors (see
            # _worker_main); spawn and forkserver do not (fresh
            # interpreter, CLOEXEC semantics), and they pickle the
            # recipes once per worker.
            forked = context.get_start_method() == "fork"
            for index in range(self.workers):
                parent_conn, child_conn = context.Pipe()
                parent_uplink, child_uplink = context.Pipe()
                parent_ends = [
                    placeholder,
                    *self._pipes,
                    *self._uplinks,
                    parent_conn,
                    parent_uplink,
                ]
                inherited_fds = (
                    tuple(end.fileno() for end in parent_ends)
                    if forked
                    else ()
                )
                process = context.Process(
                    target=_worker_main,
                    args=(
                        config,
                        recipes,
                        child_conn,
                        inherited_fds,
                        child_uplink,
                    ),
                    name=f"repro-net-worker-{index}",
                    daemon=True,
                )
                process.start()
                child_conn.close()
                child_uplink.close()
                self._processes.append(process)
                self._pipes.append(parent_conn)
                self._uplinks.append(parent_uplink)
            for index, conn in enumerate(self._pipes):
                kind, payload = self._recv(conn, index)
                if kind != "ready":
                    self._kill_processes()
                    raise RuntimeError(f"worker {index} failed: {payload}")
        finally:
            placeholder.close()
        self._broker_stop.clear()
        self._broker = threading.Thread(
            target=self._broker_loop, name="repro-net-broker", daemon=True
        )
        self._broker.start()

    def _recv(self, conn, index: int):
        if not conn.poll(CONTROL_TIMEOUT):
            self._kill_processes()
            raise RuntimeError(f"worker {index} did not answer in time")
        try:
            return conn.recv()
        except EOFError:
            self._kill_processes()
            raise RuntimeError(f"worker {index} died") from None

    # ------------------------------------------------------------------
    # The debug broker: answers workers' merged-payload queries
    # ------------------------------------------------------------------
    def _broker_loop(self) -> None:
        while not self._broker_stop.is_set():
            try:
                ready = _connection_wait(self._uplinks, timeout=0.2)
            except OSError:  # pipes closing under us: shutting down
                return
            for conn in ready:
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    continue
                if not message or message[0] != "merged?":
                    continue
                kind, arg = message[1], message[2]
                try:
                    payload = self._merged_payload(kind, arg)
                except Exception:  # noqa: BLE001 - degrade, never die
                    payload = None
                try:
                    conn.send((kind, payload))
                except (BrokenPipeError, OSError):
                    pass

    def _control_payloads(self, message: tuple, expect: str) -> List[dict]:
        """One locked request/reply round over every control pipe."""
        with self._control_lock:
            payloads = []
            for conn in self._pipes:
                conn.send(message)
            for index, conn in enumerate(self._pipes):
                if not conn.poll(CONTROL_TIMEOUT):
                    raise RuntimeError(
                        f"worker {index} did not answer {expect}"
                    )
                kind, payload = conn.recv()
                if kind != expect:
                    raise RuntimeError(
                        f"worker {index} answered {kind!r} to {expect}"
                    )
                payloads.append(payload)
            return payloads

    def _merged_payload(self, kind: str, arg):
        """The cluster-wide payload behind one worker's debug request."""
        if kind == "metrics":
            snapshot = ClusterSnapshot(
                self._control_payloads(("snapshot",), "snapshot")
            )
            registry = snapshot.merged_registry()
            # Gauges merge last-write-wins, which is wrong for the
            # per-source round totals; overwrite them with the true
            # cross-worker sums.
            gauge = registry.get("net_server_rounds_total")
            if gauge is not None:
                for name, value in snapshot.rounds.items():
                    gauge.set_key((name,), value)
            return registry.state_dict()
        if kind == "status":
            snapshot = ClusterSnapshot(
                self._control_payloads(("snapshot",), "snapshot")
            )
            return snapshot.merged_status(self.mode, self.workers)
        if kind == "spans":
            limit = arg if isinstance(arg, int) else 50
            replies = self._control_payloads(("spans", limit), "spans")
            merged = merge_groups([reply["tail"] for reply in replies])
            return {
                "tracing": self.trace_spans,
                "count": sum(r["stats"]["groups"] for r in replies),
                "dropped": sum(r["stats"]["dropped"] for r in replies),
                "recent": [
                    group_public(group) for group in merged[-limit:]
                ],
            }
        return None

    def _finish_trace(self, groups: List[dict]) -> None:
        self.trace_groups = merge_groups([groups])
        if self.trace_path is not None:
            write_server_trace(
                self.trace_path,
                self.trace_groups,
                include_timings=self.trace_timings,
            )

    def _stop_processes(self) -> None:
        # Stop the broker before touching the pipes: its wait() loop
        # and the shutdown handshake must not interleave.
        self._broker_stop.set()
        if self._broker is not None:
            self._broker.join(timeout=5.0)
            self._broker = None
        for conn in self._uplinks:
            try:
                conn.close()
            except OSError:
                pass
        self._uplinks = []
        payloads = []
        trace_groups: List[dict] = []
        with self._control_lock:
            for index, conn in enumerate(self._pipes):
                try:
                    conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    continue
            for index, conn in enumerate(self._pipes):
                try:
                    if conn.poll(CONTROL_TIMEOUT):
                        kind, payload = conn.recv()
                        if kind == "stopped":
                            trace_groups.extend(
                                payload.pop("trace_groups", None) or []
                            )
                            payloads.append(payload)
                except (EOFError, OSError):
                    pass
                conn.close()
        for process in self._processes:
            process.join(timeout=CONTROL_TIMEOUT)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=5.0)
        if self.trace_spans:
            self._finish_trace(trace_groups)
        if payloads:
            self.final_snapshot = ClusterSnapshot(payloads)

    def _kill_processes(self) -> None:
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
