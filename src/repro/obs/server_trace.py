"""Server-side request spans: recording, merging, and span-JSONL output.

Every query request that arrives with an ``X-Repro-Trace`` header
(injected by :class:`~repro.net.client.RemoteWebDatabase` via
:class:`~repro.obs.context.CrawlTraceContext`) becomes one span
*group* on the serving worker::

    s3/q0/p2/srv            request      (root; parent null on the server,
    ├── s3/q0/p2/srv/limiter  limiter     rewritten to the client fetch
    ├── s3/q0/p2/srv/parse    parse       span s3/q0/p2 at stitch time)
    ├── s3/q0/p2/srv/cache    cache
    ├── s3/q0/p2/srv/render   render
    └── s3/q0/p2/srv/serialize serialize

Retried attempts stay distinct (attempt ``k > 0`` roots at
``…/srv{k}``), so a client retry that reached the server twice never
collides.

**Placement invariance.**  Which worker records a group depends on
kernel connection hashing; the merge does not: groups sort by
``(trace id, step, query index, page, attempt)`` — all parsed from the
propagated context, none from arrival order — and ``seq`` numbers are
assigned only at write time, over the sorted stream.  Canonical span
payloads carry only workload-determined attrs (source, page, status,
record/byte counts); cache hits and misses produce the *identical*
skeleton (a hit's ``render`` span reports the cached entry it avoided
re-rendering), because hit/miss placement is a worker-local accident.
The result: the merged server trace is byte-identical for the same
crawl at any worker count.  (Caveat: per-worker rate limiters make
429s placement-dependent; byte-comparison assumes an unthrottled run,
which is how the CI smoke job runs.)

Wall/CPU phase durations ride in the same optional, non-canonical
``"t"`` field client traces use.
"""

from __future__ import annotations

import json
import re
import threading
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.trace.spans import TRACE_SCHEMA

PathLike = Union[str, Path]

#: Context ids a client propagates: the span id of a page fetch.
_CTX_RE = re.compile(r"^s(\d+)/q(\d+)/p(\d+)$")

#: Server-side root span ids (for the stitcher).
SRV_ROOT_RE = re.compile(r"^(s\d+/q\d+/p\d+)/srv(\d*)$")

#: The per-request phases, in emission order.
SERVER_PHASES = ("limiter", "parse", "cache", "render", "serialize")

#: All span names this module emits.
SERVER_SPAN_NAMES = frozenset({"request", *SERVER_PHASES})


def parse_trace_header(value: Optional[str]):
    """Parse ``trace_id;parent;attempt`` → tuple, or ``None``.

    Tolerant by design: a malformed header means "no tracing", never an
    error — observability must not change what the wire says.
    """
    if not value:
        return None
    parts = value.split(";")
    if len(parts) < 2:
        return None
    trace_id = parts[0].strip()
    parent = parts[1].strip()
    match = _CTX_RE.match(parent)
    if not trace_id or match is None:
        return None
    try:
        # int() refuses digit strings past sys.get_int_max_str_digits().
        step, q_index, page = (int(g) for g in match.groups())
    except ValueError:
        return None
    attempt = 0
    if len(parts) >= 3:
        try:
            attempt = max(0, int(parts[2]))
        except ValueError:
            attempt = 0
    return trace_id, parent, step, q_index, page, attempt


class RequestRecorder:
    """Collects one request's phases; committed as a span group."""

    __slots__ = (
        "trace_id",
        "ctx",
        "step",
        "q_index",
        "page",
        "attempt",
        "include_timings",
        "phases",
        "source",
        "_name",
        "_wall0",
        "_cpu0",
    )

    def __init__(
        self,
        trace_id: str,
        ctx: str,
        step: int,
        q_index: int,
        page: int,
        attempt: int,
        include_timings: bool,
    ) -> None:
        self.trace_id = trace_id
        self.ctx = ctx
        self.step = step
        self.q_index = q_index
        self.page = page
        self.attempt = attempt
        self.include_timings = include_timings
        #: ``[(phase_name, attrs_dict, wall_s, cpu_s), ...]``
        self.phases: List[Tuple[str, dict, float, float]] = []
        self.source: Optional[str] = None
        self._name: Optional[str] = None
        self._wall0 = 0.0
        self._cpu0 = 0.0

    def start(self, name: str) -> None:
        self._name = name
        if self.include_timings:
            self._wall0 = time.perf_counter()
            self._cpu0 = time.process_time()

    def end(self, **attrs) -> None:
        if self._name is None:  # pragma: no cover - defensive
            return
        wall = cpu = 0.0
        if self.include_timings:
            wall = time.perf_counter() - self._wall0
            cpu = time.process_time() - self._cpu0
        self.phases.append((self._name, attrs, wall, cpu))
        self._name = None

    def mark(self, name: str, **attrs) -> None:
        """A zero-duration phase (e.g. a cache hit's ``render``)."""
        self.phases.append((name, attrs, 0.0, 0.0))


class ServerSpanTracer:
    """Owns the span groups one worker records (thread-safe).

    Parameters
    ----------
    include_timings:
        Attach wall/CPU durations (non-canonical ``"t"`` field).  Off
        for canonical, byte-comparable traces.
    max_groups:
        Memory bound; requests beyond it are counted in
        :attr:`dropped` instead of recorded.
    """

    def __init__(
        self, include_timings: bool = True, max_groups: int = 250_000
    ) -> None:
        self.include_timings = include_timings
        self.max_groups = max_groups
        self.groups: List[dict] = []
        self.dropped = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def begin(self, header_value: Optional[str]) -> Optional[RequestRecorder]:
        parsed = parse_trace_header(header_value)
        if parsed is None:
            return None
        trace_id, ctx, step, q_index, page, attempt = parsed
        return RequestRecorder(
            trace_id, ctx, step, q_index, page, attempt, self.include_timings
        )

    def commit(self, rec: RequestRecorder, status: int) -> None:
        group = {
            "trace": rec.trace_id,
            "ctx": rec.ctx,
            "step": rec.step,
            "q": rec.q_index,
            "page": rec.page,
            "attempt": rec.attempt,
            "source": rec.source,
            "status": status,
            "phases": [
                [name, attrs, wall, cpu]
                for name, attrs, wall, cpu in rec.phases
            ],
        }
        with self._lock:
            if len(self.groups) >= self.max_groups:
                self.dropped += 1
            else:
                self.groups.append(group)

    # ------------------------------------------------------------------
    def payload(self) -> List[dict]:
        """All recorded groups (pickle/JSON-safe, for the control plane)."""
        with self._lock:
            return list(self.groups)

    def tail(self, limit: int = 50) -> List[dict]:
        with self._lock:
            return list(self.groups[-max(0, limit):])

    def stats(self) -> dict:
        with self._lock:
            return {"groups": len(self.groups), "dropped": self.dropped}


# ----------------------------------------------------------------------
# Merging and span-JSONL output
# ----------------------------------------------------------------------
def group_sort_key(group: dict) -> tuple:
    """Placement-invariant order: by propagated context, never arrival."""
    return (
        group["trace"],
        group["step"],
        group["q"],
        group["page"],
        group["attempt"],
    )


def merge_groups(payloads: Sequence[Sequence[dict]]) -> List[dict]:
    """Fold per-worker group lists into one sorted stream."""
    merged = [group for payload in payloads for group in payload]
    merged.sort(key=group_sort_key)
    return merged


def group_root_id(group: dict) -> str:
    suffix = "" if group["attempt"] == 0 else str(group["attempt"])
    return f"{group['ctx']}/srv{suffix}"


def _attrs_json(attrs: dict) -> str:
    return json.dumps(attrs, separators=(",", ":"))


def _span_line(
    span_id: str,
    parent: Optional[str],
    name: str,
    step: int,
    seq: int,
    attrs_json: str,
    wall: Optional[float] = None,
    cpu: Optional[float] = None,
) -> str:
    parent_lit = "null" if parent is None else f'"{parent}"'
    base = (
        f'{{"id":"{span_id}","parent":{parent_lit},"name":"{name}",'
        f'"step":{step},"seq":{seq},"attrs":{attrs_json}'
    )
    if wall is None:
        return base + "}"
    # Same rendering TraceSink uses: integer nanoseconds with an e-9
    # exponent, so timed server spans read identically to client ones.
    return (
        f'{base},"t":{{"ws":{int(round(wall * 1e9))}e-9,'
        f'"cs":{int(round(cpu * 1e9))}e-9}}}}'
    )


def group_span_lines(
    group: dict,
    seq_start: int,
    parent: Optional[str] = None,
    timed: bool = True,
) -> List[str]:
    """Render one group as span lines, root first.

    ``parent`` rewrites the root's parent (the stitcher points it at
    the client fetch span; standalone server files leave it null).
    Returns the lines; the caller advances its seq counter by
    ``len(lines)``.
    """
    root_id = group_root_id(group)
    step = group["step"]
    root_attrs = {
        "source": group["source"],
        "page": group["page"],
        "status": group["status"],
    }
    if group["attempt"]:
        root_attrs["attempt"] = group["attempt"]
    seq = seq_start
    wall_total = cpu_total = 0.0
    for _name, _attrs, wall, cpu in group["phases"]:
        wall_total += wall
        cpu_total += cpu
    lines = [
        _span_line(
            root_id,
            parent,
            "request",
            step,
            seq,
            _attrs_json(root_attrs),
            wall_total if timed else None,
            cpu_total if timed else None,
        )
    ]
    for name, attrs, wall, cpu in group["phases"]:
        seq += 1
        lines.append(
            _span_line(
                f"{root_id}/{name}",
                root_id,
                name,
                step,
                seq,
                _attrs_json(attrs),
                wall if timed else None,
                cpu if timed else None,
            )
        )
    return lines


def write_server_trace(
    path: PathLike,
    groups: Sequence[dict],
    include_timings: bool = True,
) -> int:
    """Write merged groups as a ``repro-trace/1`` file; returns spans.

    Groups are sorted placement-invariantly and ``seq`` runs over the
    sorted stream, so the same workload yields the same bytes at any
    worker count.  Multiple trace ids (several clients against one
    service) become task segments, one per trace id.
    """
    ordered = merge_groups([groups])
    trace_ids = sorted({group["trace"] for group in ordered})
    path = Path(path)
    total = 0
    with open(path, "w", encoding="utf-8") as handle:
        header = {"schema": TRACE_SCHEMA, "side": "server"}
        if len(trace_ids) == 1:
            header["trace"] = trace_ids[0]
        handle.write(json.dumps(header, separators=(",", ":")) + "\n")
        for trace_id in trace_ids:
            if len(trace_ids) > 1:
                handle.write(
                    json.dumps(
                        {"task": trace_id}, separators=(",", ":")
                    )
                    + "\n"
                )
            seq = 0
            for group in ordered:
                if group["trace"] != trace_id:
                    continue
                lines = group_span_lines(
                    group, seq, timed=include_timings
                )
                seq += len(lines)
                total += len(lines)
                handle.write("\n".join(lines) + "\n")
    return total


def group_public(group: dict) -> dict:
    """The ops-console view of one group (``/debug/spans``)."""
    return {
        "id": group_root_id(group),
        "trace": group["trace"],
        "source": group["source"],
        "page": group["page"],
        "status": group["status"],
        "attempt": group["attempt"],
        "phases": [phase[0] for phase in group["phases"]],
        "wall_s": round(sum(p[2] for p in group["phases"]), 6),
    }
