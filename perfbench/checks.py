"""Correctness checks computed apart from the program under test.

Nothing here asks the simulated server for an answer.  Match counts come
from one pass over the source table's rows; the lane and runtime
properties are read from the files a crawl wrote (journal, span trace,
telemetry snapshots, the fleet's schedule trace) or from a second crawl
run in-process outside the timed phases.
"""

from __future__ import annotations

import json
import math
from collections import Counter


class Checks:
    """Named pass/fail results; a name fails if any of its checks fails."""

    def __init__(self) -> None:
        self.results: dict = {}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        previous = self.results.get(name)
        if previous is None or (previous["ok"] and not ok):
            self.results[name] = {"ok": bool(ok), "detail": "" if ok else detail}

    @property
    def passed(self) -> bool:
        return all(result["ok"] for result in self.results.values())

    def failures(self) -> list:
        return [
            f"{name}: {result['detail']}"
            for name, result in sorted(self.results.items())
            if not result["ok"]
        ]


# ----------------------------------------------------------------------
# The table oracle
# ----------------------------------------------------------------------
def match_counts(table) -> Counter:
    """Rows holding each (attribute, value), from one pass over the rows."""
    counts: Counter = Counter()
    for row in table:
        for attribute, values in row.fields.items():
            for value in values:
                counts[(attribute, value)] += 1
    return counts


def expected_rounds(queries, counts: Counter, page_size: int) -> int:
    """Σ⌈matches/k⌉ over issued equality queries (no abortion, no limit).

    A query that matches nothing still pays for its one empty page.
    """
    total = 0
    for query in queries:
        matches = counts.get((query.attribute, query.value), 0)
        total += max(1, math.ceil(matches / page_size))
    return total


def check_against_table(
    checks: Checks,
    label: str,
    engine,
    result,
    table,
    counts: Counter,
    page_size: int,
    target: float,
) -> None:
    """Rounds, records and coverage of one finished crawl vs the table."""
    queries = list(engine.context.lqueried)
    checks.check(
        f"{label}.equality_queries_only",
        all(query.attribute is not None for query in queries),
        "the round oracle covers equality queries only",
    )
    rounds = expected_rounds(queries, counts, page_size)
    checks.check(
        f"{label}.rounds_match_oracle",
        rounds == result.communication_rounds,
        f"oracle {rounds} rounds, crawl charged {result.communication_rounds}",
    )
    displayed = set(table.schema.displayed)
    rows = {row.record_id: row for row in table}
    seen = set()
    mismatched = 0
    for record in engine.local_db:
        seen.add(record.record_id)
        row = rows.get(record.record_id)
        expected = (
            None
            if row is None
            else {a: v for a, v in row.fields.items() if a in displayed}
        )
        if dict(record.fields) != expected:
            mismatched += 1
    checks.check(
        f"{label}.records_equal_rows",
        mismatched == 0,
        f"{mismatched} harvested records differ from their table rows",
    )
    checks.check(
        f"{label}.distinct_records",
        len(seen) == result.records_harvested,
        f"{len(seen)} distinct ids, crawl reports {result.records_harvested}",
    )
    coverage = len(seen) / len(rows)
    checks.check(
        f"{label}.coverage_reaches_target",
        coverage >= target,
        f"coverage {coverage:.4f} below target {target}",
    )


def page_requests(source: str, engine, result) -> list:
    """``(source, query, pages)`` per issued query, pages read off the history.

    The crawl history holds the round counter after every step, and a
    step is one issued query, so consecutive differences are the pages
    each query paid for.
    """
    rounds = [point.rounds for point in result.history.points]
    pages = [after - before for before, after in zip(rounds, rounds[1:])]
    return [
        (source, query, count)
        for query, count in zip(engine.context.lqueried, pages)
    ]


def repeated_page_share(requests) -> float:
    """Share of requested pages that an earlier request already fetched."""
    seen = set()
    repeated = total = 0
    for source, query, pages in requests:
        total += pages
        if (source, query) in seen:
            repeated += pages
        seen.add((source, query))
    return repeated / total if total else 0.0


# ----------------------------------------------------------------------
# Durable-runtime properties (crawl-local)
# ----------------------------------------------------------------------
def check_journal(checks: Checks, path, steps: int, rounds: int) -> int:
    """One journal entry per completed step, in order; returns file bytes."""
    entries = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                entries.append(json.loads(line))
    checks.check(
        "journal.one_entry_per_step",
        [entry["step"] for entry in entries] == list(range(1, steps + 1)),
        f"{len(entries)} journal entries for {steps} completed steps",
    )
    checks.check(
        "journal.final_rounds",
        bool(entries) and entries[-1]["rounds"] == rounds,
        "last journal entry does not carry the final round count",
    )
    return path.stat().st_size


def check_trace_fetches(checks: Checks, path, rounds: int) -> None:
    fetches = 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip() and json.loads(line).get("name") == "fetch":
                fetches += 1
    checks.check(
        "trace.fetch_spans_equal_rounds",
        fetches == rounds,
        f"{fetches} fetch spans for {rounds} rounds",
    )


def check_telemetry_rounds(checks: Checks, path, rounds: int) -> None:
    with open(path, encoding="utf-8") as handle:
        snapshots = [json.loads(line) for line in handle if line.strip()]
    final = [s for s in snapshots if s.get("label") == "final"]
    samples = final[-1]["samples"] if final else []
    pages = sum(
        s["value"] for s in samples if s["name"] == "crawl_pages_fetched_total"
    )
    gauge = [s["value"] for s in samples if s["name"] == "crawl_rounds"]
    checks.check(
        "telemetry.pages_counter_equals_rounds",
        pages == rounds,
        f"crawl_pages_fetched_total {pages}, rounds {rounds}",
    )
    checks.check(
        "telemetry.rounds_gauge_equals_rounds",
        gauge == [rounds],
        f"crawl_rounds gauge {gauge}, rounds {rounds}",
    )


# ----------------------------------------------------------------------
# Remote-lane properties (crawl-remote)
# ----------------------------------------------------------------------
def check_same_crawl(checks: Checks, label: str, remote, reference) -> None:
    """A remote crawl and its in-process reference, step for step."""
    remote_engine, remote_result = remote
    local_engine, local_result = reference
    checks.check(
        f"{label}.rounds_equal_in_process",
        remote_result.communication_rounds == local_result.communication_rounds,
        f"remote {remote_result.communication_rounds} rounds, "
        f"in-process {local_result.communication_rounds}",
    )
    remote_history = [(p.rounds, p.records) for p in remote_result.history.points]
    local_history = [(p.rounds, p.records) for p in local_result.history.points]
    checks.check(
        f"{label}.history_equals_in_process",
        remote_history == local_history,
        f"per-step histories differ ({len(remote_history)} vs "
        f"{len(local_history)} points)",
    )
    checks.check(
        f"{label}.queries_equal_in_process",
        list(remote_engine.context.lqueried) == list(local_engine.context.lqueried),
        "the two lanes issued different query sequences",
    )
    remote_records = {r.record_id: dict(r.fields) for r in remote_engine.local_db}
    local_records = {r.record_id: dict(r.fields) for r in local_engine.local_db}
    checks.check(
        f"{label}.records_equal_in_process",
        remote_records == local_records,
        f"{len(remote_records)} remote vs {len(local_records)} in-process records",
    )


# ----------------------------------------------------------------------
# Fleet properties (fleet-polite)
# ----------------------------------------------------------------------
def read_schedule(path) -> dict:
    """``task -> [(source, clock), ...]`` from a fleet trace, in order."""
    tasks: dict = {}
    current = None
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            payload = json.loads(line)
            if "task" in payload:
                current = tasks.setdefault(payload["task"], [])
            elif payload.get("name") == "schedule" and current is not None:
                attrs = payload["attrs"]
                current.append((attrs["source"], attrs["clock"]))
    return tasks


def check_fleet(checks: Checks, config, result, engines: dict, schedule: dict) -> None:
    # Every admission is one engine step, except a source's last one when
    # its frontier runs dry: that step returns None and counts no step.
    admitted = Counter(source for decisions in schedule.values() for source, _ in decisions)
    expected = Counter(
        {
            name: engine.steps + (engine.result().stopped_by == "frontier-exhausted")
            for name, engine in engines.items()
        }
    )
    checks.check(
        "fleet.schedule_trace_complete",
        sum(admitted.values()) > 0 and +admitted == +expected,
        f"{sum(admitted.values())} schedule spans, "
        f"{sum(expected.values())} engine steps and exhausting calls",
    )
    checks.check(
        "fleet.within_budget",
        result.rounds_used <= config.budget and result.overshoot == 0,
        f"used {result.rounds_used} of {config.budget}, "
        f"overshoot {result.overshoot}",
    )
    per_source = sum(info["rounds"] for info in result.sources.values())
    checks.check(
        "fleet.source_rounds_sum_to_total",
        per_source == result.rounds_used,
        f"sources sum to {per_source}, total {result.rounds_used}",
    )
    over = [
        name
        for name, info in result.sources.items()
        if name not in engines or info["records"] > len(engines[name].server.table)
    ]
    checks.check(
        "fleet.records_within_tables",
        not over and set(engines) == set(result.sources),
        f"sources over their table size: {over[:5]}",
    )
    checks.check(
        "fleet.cooldowns_bind",
        result.cooldown_waits > 0,
        "no cooldown wait happened",
    )
    # A source admitted burst+1 times must span at least one cooldown
    # window; the limiter expires a stamp once it is <= now - window.
    burst, window = config.burst, config.cooldown_rounds
    violations = 0
    for decisions in schedule.values():
        admitted: dict = {}
        for source, clock in decisions:
            admitted.setdefault(source, []).append(clock)
        for clocks in admitted.values():
            for index in range(len(clocks) - burst):
                if clocks[index] > clocks[index + burst] - window:
                    violations += 1
    checks.check(
        "fleet.burst_per_cooldown_window",
        violations == 0,
        f"{violations} admissions exceeded burst={burst} per {window} rounds",
    )
