"""The ``repro-trace/1`` span-JSONL format: schema, loader, validator.

A trace file is newline-delimited JSON:

- line 1 — the header: ``{"schema": "repro-trace/1", ...}``;
- ``{"task": <label>, "seed_index": <i>}`` — a task marker opening one
  crawl's span segment inside a merged (experiment-grid) trace; absent
  in single-crawl traces;
- every other line — one span::

      {"id": "s3/q0/p2", "parent": "s3/q0", "name": "fetch",
       "step": 3, "seq": 17, "attrs": {...}, "t": {"ws": ..., "cs": ...}}

``id``/``parent``/``name``/``step``/``seq``/``attrs`` are the
*canonical* payload — fully deterministic, derived from crawl structure
alone.  ``t`` (wall/CPU seconds) is optional and explicitly
non-canonical: byte-comparison of traces is only meaningful on files
written without timings (``TraceSink(include_timings=False)`` or
``--trace-canonical``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.errors import ReproError

PathLike = Union[str, Path]

#: Format tag carried in every trace file's header line.
TRACE_SCHEMA = "repro-trace/1"

#: Required keys of a span line (``t`` is optional).
SPAN_KEYS = ("id", "parent", "name", "step", "seq", "attrs")

#: Span names the tracer emits (validators accept no others).  The
#: last six are server-side request phases (:mod:`repro.obs`): they
#: appear in server span files and in stitched traces, where each
#: ``request`` hangs under the client ``fetch`` that caused it.
SPAN_NAMES = frozenset(
    {
        "step",
        "schedule",
        "select",
        "score",
        "submit",
        "reject",
        "fetch",
        "retry",
        "abort",
        "fail",
        "extract",
        "decompose",
        "frontier-refresh",
        "request",
        "parse",
        "limiter",
        "cache",
        "render",
        "serialize",
    }
)


class TraceError(ReproError):
    """A trace file is malformed or violates the repro-trace/1 schema."""


class TraceTask:
    """One crawl's span segment inside a trace file."""

    __slots__ = ("label", "seed_index", "spans")

    def __init__(
        self,
        label: Optional[str] = None,
        seed_index: Optional[int] = None,
    ) -> None:
        self.label = label
        self.seed_index = seed_index
        self.spans: List[dict] = []

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TraceTask(label={self.label!r}, seed_index={self.seed_index}, "
            f"spans={len(self.spans)})"
        )


class Trace:
    """A parsed trace: the header plus one or more task segments."""

    __slots__ = ("header", "tasks")

    def __init__(self, header: dict, tasks: List[TraceTask]) -> None:
        self.header = header
        self.tasks = tasks

    @property
    def spans(self) -> List[dict]:
        """All spans across every task, in file order."""
        return [span for task in self.tasks for span in task.spans]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Trace(tasks={len(self.tasks)}, spans={len(self.spans)})"


def _parse_line(raw: str, number: int) -> dict:
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as error:
        raise TraceError(f"line {number}: invalid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise TraceError(f"line {number}: expected an object")
    return payload


def load_trace(path: PathLike) -> Trace:
    """Parse a span-JSONL trace file (validating as it goes)."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise TraceError(f"{path}: empty trace file")
    header = _parse_line(lines[0], 1)
    if header.get("schema") != TRACE_SCHEMA:
        raise TraceError(
            f"{path}: header schema is {header.get('schema')!r}, "
            f"expected {TRACE_SCHEMA!r}"
        )
    tasks: List[TraceTask] = []
    current: Optional[TraceTask] = None
    # The span ids seen so far in the current task, per step: a parent
    # must be one of them.
    step_ids: Dict[int, set] = {}
    for number, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        payload = _parse_line(raw, number)
        if "task" in payload:
            current = TraceTask(
                label=payload["task"], seed_index=payload.get("seed_index")
            )
            tasks.append(current)
            step_ids = {}
            continue
        previous = current.spans if current else None
        _check_span(payload, number, previous, step_ids)
        if current is None:
            current = TraceTask()
            tasks.append(current)
        current.spans.append(payload)
    return Trace(header, tasks)


def _check_span(
    span: dict,
    number: int,
    previous: Optional[List[dict]],
    step_ids: Dict[int, set],
) -> None:
    """Check one span against the task so far; records its id."""
    for key in SPAN_KEYS:
        if key not in span:
            raise TraceError(f"line {number}: span missing key {key!r}")
    if span["name"] not in SPAN_NAMES:
        raise TraceError(f"line {number}: unknown span name {span['name']!r}")
    if not isinstance(span["attrs"], dict):
        raise TraceError(f"line {number}: attrs must be an object")
    if not isinstance(span["step"], int) or span["step"] < 0:
        raise TraceError(f"line {number}: bad step {span['step']!r}")
    if previous:
        last = previous[-1]
        if span["seq"] <= last["seq"]:
            raise TraceError(
                f"line {number}: seq {span['seq']} not increasing "
                f"(previous {last['seq']})"
            )
    known = step_ids.setdefault(span["step"], set())
    parent = span["parent"]
    # A parent must already exist within the same step's tree.
    if parent is not None and parent not in known:
        raise TraceError(
            f"line {number}: parent {parent!r} of {span['id']!r} "
            f"not seen earlier in step {span['step']}"
        )
    timings = span.get("t")
    if timings is not None and not isinstance(timings, dict):
        raise TraceError(f"line {number}: t must be an object")
    try:
        known.add(span["id"])
    except TypeError:
        raise TraceError(
            f"line {number}: span id {span['id']!r} must be a JSON scalar"
        ) from None


def validate_trace_jsonl(path: PathLike) -> int:
    """Validate a trace file; returns the number of spans.

    Mirrors :func:`repro.metrics.exporters.validate_metrics_jsonl` —
    the CI smoke jobs call both.
    """
    return len(load_trace(path).spans)
