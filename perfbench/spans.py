"""In-memory span recorder for the benchmark's traced runs.

A traced round wraps public entry points of the program's modules with
timers defined here; nothing under ``src/repro`` is modified.  Each
wrapped call becomes one span (id, name, start, end, parent, crawl
step).  Spans stay in memory and are written once, after the round.

Self time is a span's duration minus its wrapped children and minus
every collector pause that happened while it was the innermost open
span; pauses are reported separately under ``gc``.  A call that
re-enters the same boundary from inside it (a hybrid policy forwarding
``next_query`` to its inner policies, say) folds into the outer span,
so a boundary's time is counted once.
"""

from __future__ import annotations

import functools
import gc
import json
import math
import time

_clock = time.perf_counter_ns

#: Percentiles considered for a ``_tail_ms`` figure, highest last.
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)


class Recorder:
    """Collects spans, per-boundary self time, and collector pauses."""

    def __init__(self) -> None:
        self.totals: dict = {}
        self.samples: dict = {}
        self.spans: list = []
        self.stack: list = []
        self.step = 0
        self.next_id = 0
        self.phase = "setup"
        #: Set while correctness checks run: their calls are not spans.
        self.paused = False
        self.gc_pause_ns: dict = {}
        self.gc_gen2: dict = {}
        self._gc_started = 0

    def reset(self) -> None:
        """Forget everything recorded so far (wrappers stay installed).

        A forked server worker inherits the parent's wrappers and its
        recorder; it calls this before serving so its spans are its own.
        """
        for total in self.totals.values():
            total[0] = total[1] = 0
        for samples in self.samples.values():
            samples.clear()
        self.spans = []
        self.stack = []
        self.step = 0
        self.next_id = 0
        self.phase = "setup"
        self.paused = False
        self.gc_pause_ns = {}
        self.gc_gen2 = {}

    # ------------------------------------------------------------------
    # Collector pauses
    # ------------------------------------------------------------------
    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = _clock()
            return
        pause = _clock() - self._gc_started
        self.gc_pause_ns[self.phase] = self.gc_pause_ns.get(self.phase, 0) + pause
        if info.get("generation") == 2:
            self.gc_gen2[self.phase] = self.gc_gen2.get(self.phase, 0) + 1
        if self.stack:
            self.stack[-1][3] += pause

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(self, name: str, fn, keep_samples: bool = False, counts_step: bool = False):
        """Return ``fn`` timed as boundary ``name``."""
        totals = self.totals.setdefault(name, [0, 0])
        samples = self.samples.setdefault(name, []) if keep_samples else None
        recorder = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = recorder.stack
            if recorder.paused or (stack and stack[-1][1] == name):
                return fn(*args, **kwargs)
            if counts_step:
                recorder.step += 1
            step = recorder.step
            span_id = recorder.next_id
            recorder.next_id = span_id + 1
            parent = stack[-1][0] if stack else None
            # [span id, boundary, wrapped-children ns, collector-pause ns]
            frame = [span_id, name, 0, 0]
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                duration = end - start
                totals[0] += duration - frame[2] - frame[3]
                totals[1] += 1
                if samples is not None:
                    samples.append(duration)
                if stack:
                    stack[-1][2] += duration
                recorder.spans.append((span_id, name, start, end, parent, step))

        return timed

    def patch_method(self, cls, attribute: str, name: str, **options) -> None:
        """Wrap ``cls.attribute`` if ``cls`` itself defines it."""
        fn = cls.__dict__.get(attribute)
        if fn is None or getattr(fn, "__isabstractmethod__", False):
            return
        setattr(cls, attribute, self.wrap(name, fn, **options))

    def patch_function(self, module, attribute: str, name: str, **options) -> None:
        setattr(module, attribute, self.wrap(name, getattr(module, attribute), **options))

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def self_seconds(self, name: str) -> float:
        return self.totals.get(name, (0, 0))[0] / 1e9

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0))[1]

    def latency(self, name: str) -> dict:
        """Median and tail (ms) of a boundary's inclusive durations."""
        return tail_summary([ns / 1e6 for ns in self.samples.get(name, ())])

    def gc_summary(self) -> dict:
        return {
            "pause_s": self.gc_pause_ns.get("crawl", 0) / 1e9,
            "setup_pause_s": self.gc_pause_ns.get("setup", 0) / 1e9,
            "gen2_collections": self.gc_gen2.get("crawl", 0),
            "setup_gen2_collections": self.gc_gen2.get("setup", 0),
        }

    def write_spans(self, path) -> int:
        """Write every span as one JSON line, in start order."""
        spans = sorted(self.spans, key=lambda span: span[2])
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, step in spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "step": step,
                        },
                        separators=(",", ":"),
                    )
                )
                handle.write("\n")
        return len(spans)


def nearest_rank(sorted_values, percentile: float) -> float:
    # Kept apart from repro.metrics.quantiles on purpose: a change to
    # the program under test must not move the benchmark's own figures.
    rank = max(1, math.ceil(percentile / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_summary(values) -> dict:
    """Median plus the highest ladder percentile with ten samples beyond it.

    With fewer than forty samples no percentile above the median has a
    real tail behind it, so the tail repeats the median.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": 50.0, "samples": 0}
    tail_pct = 50.0
    if count >= 40:
        for percentile in TAIL_LADDER:
            rank = max(1, math.ceil(percentile / 100.0 * count))
            if count - rank >= 10:
                tail_pct = percentile
    return {
        "p50": nearest_rank(ordered, 50.0),
        "tail": nearest_rank(ordered, tail_pct),
        "tail_pct": tail_pct,
        "samples": count,
    }
