"""The three benchmark workloads, one round each, timed from outside.

A round builds its inputs from the seed, runs the crawl phase, then
checks the outputs.  Timings are taken here, around calls into the
program; the program itself is used exactly as a caller would use it.

Every runner returns a plain dict (see :func:`finish`).  ``crawl_s`` is
the wall time of the crawl phase(s); ``excluded_s`` is time spent
between program start and the end of the last crawl phase that was
neither setup nor crawl (measurement scrapes), so the caller can derive
set-up time as ``t_crawl_end - t_spawn - crawl_s - excluded_s``.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import os
import random
import re
import shutil
import time
from pathlib import Path

import checks as oracle
from repro.crawler.engine import CrawlerEngine
from repro.datasets import registry as datasets_registry
from repro.experiments.harness import sample_seed_values
from repro.fleet import FleetConfig, run_fleet
from repro.fleet import driver as fleet_driver
from repro.metrics import JsonlMetricsWriter, ProgressReporter, TelemetrySink
from repro.net import RemoteWebDatabase
from repro.net import cluster as cluster_module
from repro.net.cluster import SourceCluster
from repro.policies import GreedyFrequencySelector, GreedyLinkSelector
from repro.policies.base import QuerySelector
from repro.policies.hybrid import GreedyMmmiSelector
from repro.runtime.crawler import JOURNAL_FILE, RuntimeCrawler
from repro.runtime.events import EventBus, MetricsAggregator
from repro.server.webdb import SimulatedWebDatabase
from repro.trace import TraceSink

#: Records per result page on every source (the paper's default k).
PAGE_SIZE = 10
#: Coverage every single-source crawl runs to.
TARGET = 0.95

#: crawl-local: the paper's Figure 4 policy on a dblp source.
LOCAL_DATASET = "dblp"
LOCAL_RECORDS = 8_000
LOCAL_SWITCH = 0.85
LOCAL_CHECKPOINT_EVERY = 100

#: crawl-remote: GL then GF over HTTP against one served ebay source.
REMOTE_DATASET = "ebay"
REMOTE_RECORDS = 2_000
REMOTE_PIPELINE_DEPTH = 1
REMOTE_POLICIES = (("gl", GreedyLinkSelector), ("gf", GreedyFrequencySelector))


def fleet_config(seed: int) -> FleetConfig:
    """The fleet-polite plan: 100 sources, one budget, fair scheduling.

    A shard holds twelve or thirteen sources and a step charges about
    1.5 rounds, so one pass over a shard takes about 19 virtual seconds.
    The 30-second cooldown is longer, so the clock has to wait; the
    16-round starvation bound is shorter, so fairness overrides greedy
    picks.
    """
    return FleetConfig(
        n_sources=100,
        budget=2000,
        scheduler="fair",
        seed=seed,
        scale=0.5,
        page_size=PAGE_SIZE,
        cooldown_rounds=30.0,
        burst=1,
        fairness_every=16,
        shards=8,
    )


def _now() -> float:
    return time.monotonic()


def _status_mb(field: str, pid="self") -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{field} missing from /proc/{pid}/status")


def _process_cpu(pid: int) -> float:
    """User+system CPU seconds of another process, from /proc."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


_SAMPLE = re.compile(r"^([A-Za-z_:][\w:]*)(?:\{(.*)\})?\s+(\S+)$")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def scrape_metrics(url: str) -> list:
    """``[(name, labels, value)]`` from a service's ``/metrics`` text."""
    host, port = url.split("//", 1)[1].rsplit(":", 1)
    connection = http.client.HTTPConnection(host, int(port), timeout=30)
    try:
        connection.request("GET", "/metrics")
        response = connection.getresponse()
        text = response.read().decode("utf-8")
        if response.status != 200:
            raise RuntimeError(f"/metrics answered {response.status}")
    finally:
        connection.close()
    samples = []
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match is None or line.startswith("#"):
            continue
        labels = dict(_LABEL.findall(match.group(2) or ""))
        samples.append((match.group(1), labels, float(match.group(3))))
    return samples


def _metric_sum(samples, name: str, **labels) -> float:
    return sum(
        value
        for sample_name, sample_labels, value in samples
        if sample_name == name
        and all(sample_labels.get(k) == v for k, v in labels.items())
    )


def _frontier_rescored(selector) -> int:
    """Rescored-candidate count of a selector and the selectors it wraps."""
    total = 0
    stats = selector.frontier_stats()
    if stats:
        total += stats.get("rescored_total", 0)
    for inner in vars(selector).values():
        if isinstance(inner, QuerySelector):
            total += _frontier_rescored(inner)
    return total


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def finish(
    checks: oracle.Checks,
    *,
    crawl_s: float,
    excluded_s: float,
    t_crawl_end: float,
    cpu_s: float,
    peak_rss_mb: float,
    records: int,
    rounds: int,
    ops: dict,
    layers: dict,
    info: dict,
) -> dict:
    return {
        "crawl_s": crawl_s,
        "excluded_s": excluded_s,
        "t_crawl_end": t_crawl_end,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "records": records,
        "rounds": rounds,
        "ops": ops,
        "correct": checks.passed,
        "failures": checks.failures(),
        "layers": layers,
        "info": info,
    }


# ----------------------------------------------------------------------
# Boundaries timed in a traced round
# ----------------------------------------------------------------------
def _selector_classes():
    seen, pending = set(), [QuerySelector]
    while pending:
        cls = pending.pop()
        if cls not in seen:
            seen.add(cls)
            pending.extend(cls.__subclasses__())
    return seen


def trace_boundaries(recorder) -> None:
    """Wrap the public entry points each per-layer metric is read from."""
    from repro.crawler.extractor import ResultExtractor
    from repro.crawler.localdb import LocalDatabase
    from repro.crawler.prober import DatabaseProber
    from repro.fleet import sources as fleet_sources
    from repro.metrics.progress import ProgressReporter as Progress
    from repro.runtime.journal import OutcomeJournal
    from repro.server.limits import RateLimiter
    from repro.warehouse.scheduler import _BaseScheduler

    patch, method = recorder.patch_function, recorder.patch_method
    patch(datasets_registry, "load_dataset", "datasets.generate")
    patch(fleet_sources, "load_dataset", "datasets.generate")
    patch(fleet_driver, "build_fleet", "fleet.build")
    method(SimulatedWebDatabase, "submit", "server.submit")
    method(RateLimiter, "peek", "server.limits")
    method(RateLimiter, "check", "server.limits")
    method(CrawlerEngine, "step", "crawler.step", keep_samples=True, counts_step=True)
    method(DatabaseProber, "execute", "crawler.prober")
    method(ResultExtractor, "extract", "crawler.extract")
    method(LocalDatabase, "add", "crawler.localdb_add")
    for cls in _selector_classes():
        method(cls, "next_query", "policies.select")
        for update in ("add_candidate", "add_candidate_id", "observe_outcome"):
            method(cls, update, "policies.update")
    method(OutcomeJournal, "record", "runtime.journal")
    method(OutcomeJournal, "flush", "runtime.journal")
    # Checkpoint markers and snapshots have no public entry point of
    # their own; these two methods are where the runtime writes them.
    method(RuntimeCrawler, "_commit_progress", "runtime.checkpoint")
    method(RuntimeCrawler, "_write_checkpoint", "runtime.checkpoint")
    method(EventBus, "emit", "runtime.bus")
    method(TraceSink, "handle", "trace.sink")
    for sink in (TelemetrySink, Progress, MetricsAggregator):
        method(sink, "handle", "metrics.sink")
    method(RemoteWebDatabase, "submit", "net.client.fetch", keep_samples=True)
    method(_BaseScheduler, "run", "fleet.schedule")


#: Boundaries whose self time is named for the children it excludes.
_SELF_TIME_NAMES = {
    "crawler.prober": "crawler.prober_self",
    "fleet.schedule": "fleet.schedule_self",
}


def crawl_layers(recorder) -> dict:
    """Per-layer figures common to every workload (traced rounds only)."""
    layers = {}
    for boundary in recorder.totals:
        name = _SELF_TIME_NAMES.get(boundary, boundary)
        layers[f"{name}_s"] = recorder.self_seconds(boundary)
        layers[f"{boundary}_calls"] = recorder.calls(boundary)
    step = recorder.latency("crawler.step")
    layers["crawler.step_p50_ms"] = step["p50"]
    layers["crawler.step_tail_ms"] = step["tail"]
    layers["crawler.steps"] = step["samples"]
    layers["crawler.step_tail_pct"] = step["tail_pct"]
    fetch = recorder.latency("net.client.fetch")
    layers["net.client.fetch_p50_ms"] = fetch["p50"]
    layers["net.client.fetch_tail_ms"] = fetch["tail"]
    layers["net.client.fetch_tail_pct"] = fetch["tail_pct"]
    gc_stats = recorder.gc_summary()
    layers["gc.pause_s"] = gc_stats["pause_s"]
    layers["gc.gen2_collections"] = gc_stats["gen2_collections"]
    layers["gc.setup_pause_s"] = gc_stats["setup_pause_s"]
    return layers


# ----------------------------------------------------------------------
# crawl-local
# ----------------------------------------------------------------------
def run_crawl_local(seed: int, out: Path, recorder) -> dict:
    work = _fresh_dir(out / "files")
    table = datasets_registry.load_dataset(LOCAL_DATASET, LOCAL_RECORDS, seed=seed)
    server = SimulatedWebDatabase(table, page_size=PAGE_SIZE)
    selector = GreedyMmmiSelector(switch_coverage=LOCAL_SWITCH, detector=None)
    # The sinks `repro crawl --checkpoint-dir --trace-out --metrics-out`
    # attaches, in the order it attaches them.
    bus = EventBus()
    bus.attach(MetricsAggregator())
    telemetry = bus.attach(TelemetrySink(truth_size=len(table)))
    writer = JsonlMetricsWriter(work / "metrics.jsonl")
    reporter = bus.attach(
        ProgressReporter(
            every=0, stream=None, telemetry=telemetry,
            truth_size=len(table), writer=writer,
        )
    )
    tracer = bus.attach(TraceSink(work / "trace.jsonl", include_timings=True))
    engine = CrawlerEngine(server, selector, seed=seed, bus=bus)
    runtime = RuntimeCrawler(
        engine,
        checkpoint_dir=work / "checkpoint",
        checkpoint_every=LOCAL_CHECKPOINT_EVERY,
        telemetry=telemetry,
        trace=tracer,
    )
    seeds = sample_seed_values(table, 1, random.Random(seed), min_frequency=2)
    rss_after_setup = _status_mb("VmRSS")
    if recorder is not None:
        recorder.phase = "crawl"
    cpu0, wall0 = time.process_time(), _now()
    result = runtime.crawl(seeds, target_coverage=TARGET)
    runtime.close()
    tracer.close()
    reporter.close()
    telemetry.sample_server(server)
    telemetry.sample_selector(selector)
    writer.write_snapshot(telemetry.registry, step=None, label="final")
    writer.close()
    wall1, cpu1 = _now(), time.process_time()
    peak = _status_mb("VmHWM")
    layers = {}
    if recorder is not None:
        recorder.phase = "check"
        recorder.paused = True
        layers = crawl_layers(recorder)

    checks = oracle.Checks()
    oracle.check_against_table(
        checks, "crawl", engine, result, table,
        oracle.match_counts(table), PAGE_SIZE, TARGET,
    )
    journal_bytes = oracle.check_journal(
        checks, work / "checkpoint" / JOURNAL_FILE, engine.steps,
        result.communication_rounds,
    )
    oracle.check_trace_fetches(checks, work / "trace.jsonl", result.communication_rounds)
    oracle.check_telemetry_rounds(checks, work / "metrics.jsonl", result.communication_rounds)
    checks.check(
        "crawl.no_failed_or_rejected_queries",
        result.failed_queries == 0 and result.rejected_queries == 0,
        f"{result.failed_queries} failed, {result.rejected_queries} rejected",
    )
    if recorder is not None:
        layers.update(
            {
                "server.rounds": result.communication_rounds,
                "policies.frontier_rescored": _frontier_rescored(selector),
                "runtime.journal_bytes_per_step": journal_bytes / max(engine.steps, 1),
                "trace.spans": tracer.spans_written,
                "proc.rss_after_setup_mb": rss_after_setup,
            }
        )
    shutil.rmtree(work, ignore_errors=True)
    queries = result.queries_issued + result.rejected_queries
    return finish(
        checks,
        crawl_s=wall1 - wall0,
        excluded_s=0.0,
        t_crawl_end=wall1,
        cpu_s=cpu1 - cpu0,
        peak_rss_mb=peak,
        records=result.records_harvested,
        rounds=result.communication_rounds,
        ops={
            "queries": queries,
            "queries_failed": result.failed_queries + result.rejected_queries,
        },
        layers=layers,
        info={
            "steps": engine.steps,
            "source_records": len(table),
            "repeated_page_share": oracle.repeated_page_share(
                oracle.page_requests(LOCAL_DATASET, engine, result)
            ),
        },
    )


# ----------------------------------------------------------------------
# crawl-remote
# ----------------------------------------------------------------------
def _trace_server_worker(recorder, layers_path: Path, spans_path: Path) -> None:
    """Time server-side boundaries inside the server's worker process.

    The worker is forked from this process after the wrappers are in
    place, so it inherits them; it starts from an empty recorder and
    writes its spans and totals once it has stopped serving.
    """
    original = cluster_module._worker_main

    def traced_worker(*args, **kwargs):
        recorder.reset()
        try:
            original(*args, **kwargs)
        finally:
            recorder.write_spans(spans_path)
            layers_path.write_text(
                json.dumps(
                    {
                        "server.submit_s": recorder.self_seconds("server.submit"),
                        "server.submit_calls": recorder.calls("server.submit"),
                    }
                ),
                encoding="utf-8",
            )

    cluster_module._worker_main = traced_worker


def run_crawl_remote(seed: int, out: Path, recorder) -> dict:
    table = datasets_registry.load_dataset(REMOTE_DATASET, REMOTE_RECORDS, seed=seed)
    seeds = sample_seed_values(table, 1, random.Random(seed), min_frequency=2)
    cluster = SourceCluster(
        {REMOTE_DATASET: SimulatedWebDatabase(table, page_size=PAGE_SIZE)},
        workers=1,
        mode="process",
    )
    if recorder is not None:
        _trace_server_worker(
            recorder, out / "server-layers.json", out / "server-spans.jsonl"
        )
    url = cluster.start()
    rss_after_setup = _status_mb("VmRSS")
    (worker,) = multiprocessing.active_children()
    # Crawler and server share one core.  On two cores every page round
    # trip waited for an idle virtual CPU to be woken, and that wait, not
    # the lane's work, set how much wall time varied between runs.
    core = {min(os.sched_getaffinity(0))}
    os.sched_setaffinity(0, core)
    os.sched_setaffinity(worker.pid, core)
    excluded = 0.0
    crawl_s = client_cpu = server_cpu = 0.0
    crawls = []
    per_crawl = []
    for label, policy in REMOTE_POLICIES:
        client = RemoteWebDatabase(url, pipeline_depth=REMOTE_PIPELINE_DEPTH)
        engine = CrawlerEngine(client, policy(), seed=seed)
        before = None
        if recorder is not None:
            mark = _now()
            before = scrape_metrics(url)
            excluded += _now() - mark
            recorder.phase = "crawl"
        server0 = _process_cpu(worker.pid)
        cpu0, wall0 = time.process_time(), _now()
        result = engine.crawl(seeds, target_coverage=TARGET)
        wall1, cpu1 = _now(), time.process_time()
        server1 = _process_cpu(worker.pid)
        if recorder is not None:
            recorder.phase = "setup"
            mark = _now()
            after = scrape_metrics(url)
            hits = _metric_sum(after, "net_server_page_cache_total", result="hit")
            hits -= _metric_sum(before, "net_server_page_cache_total", result="hit")
            misses = _metric_sum(after, "net_server_page_cache_total", result="miss")
            misses -= _metric_sum(before, "net_server_page_cache_total", result="miss")
            per_crawl.append(
                {"crawl": label, "cache_hit_share": hits / max(hits + misses, 1)}
            )
            excluded += _now() - mark
        client.close()
        crawl_s += wall1 - wall0
        client_cpu += cpu1 - cpu0
        server_cpu += server1 - server0
        crawls.append((label, policy, engine, result))
    t_crawl_end = wall1
    peak = _status_mb("VmHWM")
    server_peak = _status_mb("VmHWM", worker.pid)
    if recorder is not None:
        recorder.phase = "check"
        recorder.paused = True
    metrics = scrape_metrics(url)
    cluster.stop()

    checks = oracle.Checks()
    counts = oracle.match_counts(table)
    client_rounds = 0
    for label, policy, engine, result in crawls:
        client_rounds += result.communication_rounds
        oracle.check_against_table(
            checks, label, engine, result, table, counts, PAGE_SIZE, TARGET
        )
        reference = CrawlerEngine(
            SimulatedWebDatabase(table, page_size=PAGE_SIZE), policy(), seed=seed
        )
        reference_result = reference.crawl(seeds, target_coverage=TARGET)
        oracle.check_same_crawl(
            checks, label, (engine, result), (reference, reference_result)
        )
        checks.check(
            f"{label}.no_failed_or_rejected_queries",
            result.failed_queries == 0 and result.rejected_queries == 0,
            f"{result.failed_queries} failed, {result.rejected_queries} rejected",
        )
    server_rounds = _metric_sum(metrics, "net_server_rounds_total", source=REMOTE_DATASET)
    checks.check(
        "server.merged_rounds_equal_client",
        server_rounds == client_rounds,
        f"server charged {server_rounds:.0f} rounds, clients consumed {client_rounds}",
    )
    statuses = {}
    for name, labels, value in metrics:
        if name == "net_server_requests_total":
            statuses[labels["status"]] = statuses.get(labels["status"], 0) + int(value)
    http_failed = sum(n for status, n in statuses.items() if int(status) >= 400)
    query_requests = int(_metric_sum(metrics, "net_server_requests_total", route="query"))
    hits = _metric_sum(metrics, "net_server_page_cache_total", result="hit")
    misses = _metric_sum(metrics, "net_server_page_cache_total", result="miss")

    layers = {}
    if recorder is not None:
        layers = crawl_layers(recorder)
        server_layers = json.loads((out / "server-layers.json").read_text())
        handle_s = _metric_sum(metrics, "net_server_request_seconds_sum", route="query")
        layers.update(server_layers)
        layers.update(
            {
                "server.rounds": client_rounds,
                "policies.frontier_rescored": sum(
                    _frontier_rescored(engine.selector) for _, _, engine, _ in crawls
                ),
                "net.client.cpu_s": client_cpu,
                "net.client.prefetch_wasted": query_requests - client_rounds,
                "net.server.cpu_s": server_cpu,
                "net.server.handle_s": handle_s,
                "net.server.peak_rss_mb": server_peak,
                "net.wire_s": layers["net.client.fetch_s"] - handle_s,
                "net.server.cache_hit_share": hits / max(hits + misses, 1),
                "proc.rss_after_setup_mb": rss_after_setup,
            }
        )
    spans_path = out / "server-spans.jsonl"
    requests = []
    for label, policy, engine, result in crawls:
        requests += oracle.page_requests(REMOTE_DATASET, engine, result)
    info = {
        "source_records": len(table),
        "repeated_page_share": oracle.repeated_page_share(requests),
        "per_crawl": per_crawl,
        "http_statuses": statuses,
        "cache_hit_share": hits / max(hits + misses, 1),
    }
    if spans_path.exists():
        info["server_spans_path"] = str(spans_path)
    records = sum(result.records_harvested for *_, result in crawls)
    queries = sum(r.queries_issued + r.rejected_queries for *_, r in crawls)
    failed = sum(r.failed_queries + r.rejected_queries for *_, r in crawls)
    return finish(
        checks,
        crawl_s=crawl_s,
        excluded_s=excluded,
        t_crawl_end=t_crawl_end,
        cpu_s=client_cpu + server_cpu,
        peak_rss_mb=peak,
        records=records,
        rounds=client_rounds,
        ops={
            "queries": queries,
            "queries_failed": failed,
            "http_requests": sum(statuses.values()),
            "http_failed": http_failed,
        },
        layers=layers,
        info=info,
    )


# ----------------------------------------------------------------------
# fleet-polite
# ----------------------------------------------------------------------
def run_fleet_polite(seed: int, out: Path, recorder) -> dict:
    work = _fresh_dir(out / "files")
    config = fleet_config(seed)
    built = []
    build = {"wall": 0.0, "cpu": 0.0}
    build_fleet = fleet_driver.build_fleet

    def timed_build(*args, **kwargs):
        # Building engines is set-up even though run_fleet does it.
        if recorder is not None:
            recorder.phase = "setup"
        cpu0, wall0 = time.process_time(), _now()
        engines, seeds = build_fleet(*args, **kwargs)
        build["wall"] += _now() - wall0
        build["cpu"] += time.process_time() - cpu0
        built.append(engines)
        if recorder is not None:
            recorder.phase = "crawl"
        return engines, seeds

    fleet_driver.build_fleet = timed_build
    trace_path = work / "fleet-trace.jsonl"
    rss_after_setup = _status_mb("VmRSS")
    if recorder is not None:
        recorder.phase = "crawl"
    cpu0, wall0 = time.process_time(), _now()
    try:
        result = run_fleet(config, workers=1, trace_path=trace_path)
    finally:
        fleet_driver.build_fleet = build_fleet
    wall1, cpu1 = _now(), time.process_time()
    peak = _status_mb("VmHWM")
    layers = {}
    if recorder is not None:
        recorder.phase = "check"
        recorder.paused = True
        layers = crawl_layers(recorder)

    engines = {name: engine for shard in built for name, engine in shard.items()}
    schedule = oracle.read_schedule(trace_path)
    checks = oracle.Checks()
    oracle.check_fleet(checks, config, result, engines, schedule)
    failed = sum(engine.result().failed_queries for engine in engines.values())
    rejected = sum(engine.result().rejected_queries for engine in engines.values())
    decisions = sum(len(decisions) for decisions in schedule.values())
    if recorder is not None:
        layers.update(
            {
                "server.rounds": result.rounds_used,
                "policies.frontier_rescored": sum(
                    _frontier_rescored(engine.selector) for engine in engines.values()
                ),
                "fleet.decisions": decisions,
                "fleet.cooldown_waits": result.cooldown_waits,
                "proc.rss_after_setup_mb": rss_after_setup,
            }
        )
    shutil.rmtree(work, ignore_errors=True)
    queries = sum(info["queries"] for info in result.sources.values())
    return finish(
        checks,
        crawl_s=(wall1 - wall0) - build["wall"],
        excluded_s=0.0,
        t_crawl_end=wall1,
        cpu_s=(cpu1 - cpu0) - build["cpu"],
        peak_rss_mb=peak,
        records=result.total_records,
        rounds=result.rounds_used,
        ops={
            "fleet_steps": decisions,
            "queries": queries + rejected,
            "queries_failed": failed + rejected,
        },
        layers=layers,
        info={
            "repeated_page_share": oracle.repeated_page_share(
                request
                for name, engine in engines.items()
                for request in oracle.page_requests(name, engine, engine.result())
            ),
            "cooldown_waits": result.cooldown_waits,
            "coverage": result.coverage,
            "source_records": result.total_truth,
            "build_s": build["wall"],
        },
    )


RUNNERS = {
    "crawl-local": run_crawl_local,
    "crawl-remote": run_crawl_remote,
    "fleet-polite": run_fleet_polite,
}
