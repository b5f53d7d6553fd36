"""Command-line interface: generate, crawl, and reproduce from a shell.

Usage (also via ``python -m repro``)::

    repro datasets                          # list generators
    repro generate dblp --records 5000 --out dblp.json.gz
    repro crawl --dataset ebay --policy greedy-link --target 0.9
    repro crawl --table dblp.json.gz --policy bfs --max-rounds 2000
    repro crawl --dataset ebay --checkpoint-dir state/ --checkpoint-every 100
    repro resume state/
    repro experiment figure3 --records 2000
    repro experiment table1

Every subcommand prints a plain-text report to stdout; ``crawl`` can
additionally write the coverage history as CSV (``--history out.csv``).

With ``--checkpoint-dir`` the crawl runs under the durable runtime
(:mod:`repro.runtime`): it journals every step, commits a checkpoint
marker every ``--checkpoint-every`` steps (cheap: a journal flush plus
a progress manifest; add ``--snapshot-every`` for periodic full-state
snapshots), and records a setup recipe so ``repro resume DIR`` can
rebuild the source and continue after a crash or a
``--stop-after-steps`` suspension.
"""

from __future__ import annotations

import argparse
import sys
from types import SimpleNamespace
from typing import Callable, Dict, Optional, Sequence

from repro import io
from repro.core.errors import ReproError
from repro.core.table import sample_seed_values
from repro.crawler.engine import CrawlerEngine
from repro.datasets.registry import dataset_info, dataset_names, load_dataset
from repro.experiments import (
    run_abortion_ablation,
    run_figure2,
    run_figure3,
    run_figure4,
    run_figure5,
    run_figure6,
    run_greedy_signal_ablation,
    run_keyword_interface,
    run_mmmi_ablation,
    run_size_estimation,
    run_smoothing_ablation,
    run_stability,
    run_table1,
    run_table2,
)
from repro.fleet import (
    FLEET_SCHEDULERS,
    FleetConfig,
    compare_fleet,
    fleet_bench_payload,
    run_fleet,
)
from repro.parallel import parse_workers
from repro.policies import (
    AdaptiveAttributeSelector,
    BreadthFirstSelector,
    DepthFirstSelector,
    GreedyFrequencySelector,
    GreedyLinkSelector,
    GreedyMmmiSelector,
    RandomSelector,
    build_practical_crawler,
)
from repro.server.limits import ResultLimitPolicy
from repro.server.webdb import SimulatedWebDatabase

#: Policies constructible without extra inputs (DM needs a domain table).
POLICIES: Dict[str, Callable] = {
    "bfs": BreadthFirstSelector,
    "dfs": DepthFirstSelector,
    "random": RandomSelector,
    "greedy-link": GreedyLinkSelector,
    "greedy-frequency": GreedyFrequencySelector,
    "greedy-mmmi": lambda: GreedyMmmiSelector(switch_coverage=None),
    "adaptive": AdaptiveAttributeSelector,
    "practical": None,  # resolved specially (engine-level bundle)
}

#: Experiment drivers.  Each entry takes ``(args, workers, bus, trace,
#: timings)``; drivers with no independent grid to fan out ignore the
#: trailing arguments.  ``trace``/``timings`` only reach the drivers in
#: :data:`TRACEABLE_EXPERIMENTS`.
EXPERIMENTS = {
    "table1": lambda args, workers, bus, trace, timings: run_table1(
        seed=args.seed, workers=workers
    ),
    "table2": lambda args, workers, bus, trace, timings: run_table2(
        n_records=args.records, seed=args.seed
    ),
    "figure2": lambda args, workers, bus, trace, timings: run_figure2(
        n_records=args.records or 4000, seed=args.seed
    ),
    "figure3": lambda args, workers, bus, trace, timings: run_figure3(
        n_records=args.records or 3000, n_seeds=2, seed=args.seed,
        workers=workers, bus=bus, trace=trace, trace_timings=timings,
    ),
    "figure4": lambda args, workers, bus, trace, timings: run_figure4(
        n_records=args.records or 4000, n_seeds=2, seed=args.seed,
        workers=workers, bus=bus, trace=trace, trace_timings=timings,
    ),
    "figure5": lambda args, workers, bus, trace, timings: run_figure5(
        rng_seed=args.seed, workers=workers, bus=bus,
        trace=trace, trace_timings=timings,
    ),
    "figure6": lambda args, workers, bus, trace, timings: run_figure6(
        rng_seed=args.seed, workers=workers, bus=bus,
        trace=trace, trace_timings=timings,
    ),
    "size": lambda args, workers, bus, trace, timings: run_size_estimation(
        rng_seed=args.seed
    ),
    "ablation-greedy-signal":
        lambda args, workers, bus, trace, timings: run_greedy_signal_ablation(
            n_records=args.records or 3000, seed=args.seed,
            workers=workers, bus=bus, trace=trace, trace_timings=timings,
        ),
    "ablation-mmmi": lambda args, workers, bus, trace, timings: run_mmmi_ablation(
        n_records=args.records or 4000, seed=args.seed,
        workers=workers, bus=bus, trace=trace, trace_timings=timings,
    ),
    "ablation-smoothing":
        lambda args, workers, bus, trace, timings: run_smoothing_ablation(
            rng_seed=args.seed, workers=workers
        ),
    "ablation-abortion":
        lambda args, workers, bus, trace, timings: run_abortion_ablation(
            n_records=args.records or 4000, seed=args.seed, workers=workers
        ),
    "keyword-interface":
        lambda args, workers, bus, trace, timings: run_keyword_interface(
            rng_seed=args.seed
        ),
    "stability": lambda args, workers, bus, trace, timings: run_stability(
        n_records=args.records or 2000, seed=args.seed,
        workers=workers, bus=bus, trace=trace, trace_timings=timings,
    ),
}


#: Experiments whose drivers accept ``trace=`` (span tracing fans out
#: through :func:`repro.parallel.run_crawl_grid` in these).
TRACEABLE_EXPERIMENTS = frozenset(
    {
        "figure3",
        "figure4",
        "figure5",
        "figure6",
        "ablation-greedy-signal",
        "ablation-mmmi",
        "stability",
    }
)


def _add_trace_flags(parser) -> None:
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a causal span trace here (span JSONL, schema "
             "repro-trace/1; inspect with 'repro trace summarize')")
    parser.add_argument(
        "--trace-canonical", action="store_true",
        help="omit wall/CPU timings from the trace so the file is "
             "byte-identical across runs, worker counts, and "
             "crash/resume splits")


def _add_telemetry_flags(parser, progress: bool = True) -> None:
    parser.add_argument(
        "--metrics-out", default=None,
        help="append live telemetry snapshots here (JSONL, one per "
             "heartbeat plus a final one)")
    parser.add_argument(
        "--prometheus-out", default=None,
        help="write the final metrics registry here in the Prometheus "
             "text exposition format")
    if progress:
        parser.add_argument(
            "--progress-every", type=int, default=0,
            help="print a progress heartbeat every N completed crawl "
                 "steps (0 = off)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Deep-web query-selection crawling (ICDE 2006 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("datasets", help="list the built-in dataset generators")

    generate = commands.add_parser("generate", help="generate a dataset to JSON")
    generate.add_argument("dataset", choices=dataset_names())
    generate.add_argument("--records", type=int, default=0,
                          help="record count (0 = registry default)")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True,
                          help="output path (.json or .json.gz)")

    crawl = commands.add_parser("crawl", help="crawl a source and report")
    source = crawl.add_mutually_exclusive_group(required=True)
    source.add_argument("--dataset", choices=dataset_names(),
                        help="generate-and-crawl a built-in dataset")
    source.add_argument("--table", help="crawl a saved table (JSON)")
    source.add_argument("--remote", metavar="URL",
                        help="crawl a source served by 'repro serve' at this "
                             "base URL (http://host:port)")
    crawl.add_argument("--remote-source", default=None, metavar="NAME",
                       help="source name on the remote service (default: its "
                            "only mounted source)")
    crawl.add_argument("--pipeline-depth", type=int, default=2,
                       help="pages kept in flight ahead of extraction on the "
                            "remote lane (0 disables pipelining)")
    crawl.add_argument("--records", type=int, default=0)
    crawl.add_argument("--policy", choices=sorted(POLICIES), default="greedy-link")
    crawl.add_argument("--page-size", type=int, default=10)
    crawl.add_argument("--result-limit", type=int, default=None)
    crawl.add_argument("--target", type=float, default=None,
                       help="stop at this true coverage (0..1)")
    crawl.add_argument("--max-rounds", type=int, default=None)
    crawl.add_argument("--max-queries", type=int, default=None)
    crawl.add_argument("--seed", type=int, default=0)
    crawl.add_argument("--history", default=None,
                       help="write the coverage history CSV here")
    crawl.add_argument("--checkpoint-dir", default=None,
                       help="run durably: journal + checkpoints in this directory")
    crawl.add_argument("--checkpoint-every", type=int, default=100,
                       help="steps between checkpoint markers: journal "
                            "group-commit + progress manifest "
                            "(with --checkpoint-dir)")
    crawl.add_argument("--snapshot-every", type=int, default=0,
                       help="steps between full-state snapshots; 0 writes "
                            "them only at baseline and suspension")
    crawl.add_argument("--stop-after-steps", type=int, default=None,
                       help="suspend gracefully after N steps "
                            "(needs --checkpoint-dir)")
    crawl.add_argument("--profile", default=None, metavar="PATH",
                       help="run the crawl under cProfile: dump raw stats "
                            "to PATH (readable with pstats/snakeviz) and "
                            "print the top functions by cumulative time")
    crawl.add_argument("--profile-top", type=int, default=25, metavar="N",
                       help="with --profile: how many functions the printed "
                            "cumulative-time summary lists (default 25)")
    crawl.add_argument("--sample-profile", default=None, metavar="PATH",
                       help="run a low-overhead sampling profiler alongside "
                            "the crawl and write flamegraph folded stacks to "
                            "PATH; each sample is prefixed with the active "
                            "span label when tracing is on")
    crawl.add_argument("--sample-interval", type=float, default=0.005,
                       metavar="SECONDS",
                       help="seconds between profiler samples "
                            "(with --sample-profile; default 0.005)")
    _add_telemetry_flags(crawl)
    _add_trace_flags(crawl)

    resume = commands.add_parser(
        "resume", help="resume a checkpointed crawl from its directory"
    )
    resume.add_argument("checkpoint_dir",
                        help="directory holding checkpoint.json + journal.jsonl")
    resume.add_argument("--stop-after-steps", type=int, default=None,
                        help="suspend again after N further steps")
    resume.add_argument("--history", default=None,
                        help="write the coverage history CSV here")
    _add_telemetry_flags(resume)
    _add_trace_flags(resume)

    experiment = commands.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))
    experiment.add_argument("--records", type=int, default=None)
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument(
        "--workers", default="auto",
        help="process-pool width for the experiment grid: a count, or "
             "'auto' (one per CPU); 1 = the legacy sequential path. "
             "Results are identical at any width.",
    )
    _add_telemetry_flags(experiment, progress=False)
    _add_trace_flags(experiment)

    trace = commands.add_parser(
        "trace", help="inspect span traces written with --trace-out"
    )
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_commands.add_parser(
        "summarize", help="phase breakdown, cost totals, expensive queries"
    )
    summarize.add_argument("trace", help="a span-JSONL trace file")
    summarize.add_argument("--top", type=int, default=10,
                           help="how many expensive queries to list")
    summarize.add_argument("--json", action="store_true",
                           help="emit the summary as JSON instead of text")
    summarize.add_argument("--critical-paths", action="store_true",
                           help="also list the dominant root-to-leaf paths")
    export = trace_commands.add_parser(
        "export", help="convert a trace for external viewers"
    )
    export.add_argument("trace", help="a span-JSONL trace file")
    export.add_argument("--chrome", metavar="PATH",
                        help="write Trace Event Format JSON here "
                             "(chrome://tracing, ui.perfetto.dev)")
    export.add_argument("--folded", metavar="PATH",
                        help="write flamegraph folded stacks here")
    diff = trace_commands.add_parser(
        "diff", help="compare two traces' summaries side by side"
    )
    diff.add_argument("trace_a", help="baseline span-JSONL trace")
    diff.add_argument("trace_b", help="comparison span-JSONL trace")
    stitch = trace_commands.add_parser(
        "stitch",
        help="join a client trace with the matching server-side span "
             "file into one end-to-end trace",
    )
    stitch.add_argument("client", help="client span-JSONL trace "
                                       "(crawl --remote --trace-out)")
    stitch.add_argument("server", help="server span-JSONL trace "
                                       "(serve --trace-out)")
    stitch.add_argument("--out", required=True, metavar="PATH",
                        help="write the stitched trace here")

    serve = commands.add_parser(
        "serve", help="serve simulated sources over HTTP"
    )
    serve.add_argument("--dataset", action="append", choices=dataset_names(),
                       help="mount a built-in dataset (repeatable)")
    serve.add_argument("--table", action="append", metavar="PATH",
                       help="mount a saved table JSON (repeatable)")
    serve.add_argument("--records", type=int, default=0,
                       help="record count for --dataset sources "
                            "(0 = registry default)")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--page-size", type=int, default=10)
    serve.add_argument("--result-limit", type=int, default=None)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port (0 = pick a free one)")
    serve.add_argument("--rate-limit", type=int, default=0,
                       help="max requests per client per window "
                            "(0 = unlimited)")
    serve.add_argument("--rate-window", type=float, default=1.0,
                       help="rate-limit window in seconds")
    serve.add_argument("--ban-after", type=int, default=0,
                       help="consecutive violations before a temporary ban "
                            "(0 = never ban)")
    serve.add_argument("--ban-seconds", type=float, default=30.0)
    serve.add_argument("--no-truth", action="store_true",
                       help="seal the /truth/* routes (no ground-truth "
                            "leakage to clients)")
    serve.add_argument("--workers", type=int, default=1,
                       help="worker processes serving the port, each with "
                            "its own event loop and SO_REUSEPORT socket "
                            "(a SourceCluster; needs SO_REUSEPORT, as on "
                            "Linux)")
    serve.add_argument("--page-cache", type=int, default=4096,
                       help="rendered-page LRU entries per worker "
                            "(0 disables the cache)")
    serve.add_argument("--trace-out", default=None, metavar="PATH",
                       help="record one server-side span group per traced "
                            "request (clients propagate X-Repro-Trace) and "
                            "write the span JSONL here at shutdown; join "
                            "with the client trace via 'repro trace stitch'")
    serve.add_argument("--trace-canonical", action="store_true",
                       help="omit wall/CPU timings from the server trace so "
                            "the file is byte-identical across runs and "
                            "worker counts")

    top = commands.add_parser(
        "top", help="live ops console for a running service"
    )
    top.add_argument("url", help="service base URL (http://host:port)")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between refreshes (default 2)")
    top.add_argument("--once", action="store_true",
                     help="render a single frame and exit (no screen clear)")
    top.add_argument("--iterations", type=int, default=None, metavar="N",
                     help="stop after N frames (default: run until Ctrl-C)")
    top.add_argument("--metrics-jsonl", default=None, metavar="PATH",
                     help="also tail crawl-side telemetry from this "
                          "repro-metrics/1 JSONL file (written by a crawl's "
                          "--metrics-out)")

    loadtest = commands.add_parser(
        "loadtest", help="drive concurrent sessions against a service"
    )
    loadtest.add_argument("url", help="service base URL (http://host:port)")
    loadtest.add_argument("--source", default=None,
                          help="source name (default: first mounted)")
    loadtest.add_argument("--sessions", type=int, default=500)
    loadtest.add_argument("--queries", type=int, default=2,
                          help="queries issued per session")
    loadtest.add_argument("--value-pool", type=int, default=64,
                          help="distinct probe values sampled from the "
                               "service")
    loadtest.add_argument("--seed", type=int, default=0)
    loadtest.add_argument("--timeout", type=float, default=30.0)
    loadtest.add_argument("--bench-out", default=None, metavar="PATH",
                          help="write BENCH_net.json (regression-gate shape) "
                               "here")

    fleet = commands.add_parser(
        "fleet",
        help="crawl many sources under one shared round budget",
    )
    fleet.add_argument("--sources", type=int, default=50,
                       help="fleet size (number of generated sources)")
    fleet.add_argument("--budget", type=int, default=200,
                       help="total communication rounds across the fleet")
    fleet.add_argument("--scheduler", choices=FLEET_SCHEDULERS,
                       default="greedy")
    fleet.add_argument("--workers", default="1",
                       help="process count or 'auto' (results are "
                            "identical at any width)")
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument("--scale", type=float, default=1.0,
                       help="source-size multiplier (count is unchanged)")
    fleet.add_argument("--shards", type=int, default=8,
                       help="plan partitions (part of the result, "
                            "not the worker count)")
    fleet.add_argument("--page-size", type=int, default=10,
                       help="base page size k; sources draw k/2..5k")
    fleet.add_argument("--cooldown", type=float, default=2.0,
                       help="per-source politeness cooldown in virtual "
                            "seconds (= rounds); 0 disables")
    fleet.add_argument("--burst", type=int, default=1,
                       help="steps allowed per cooldown window")
    fleet.add_argument("--max-step-rounds", type=int, default=4,
                       help="hard per-step round cap (page cap, no "
                            "retries) backing the budget guarantee")
    fleet.add_argument("--fairness-every", type=int, default=None,
                       help="starvation bound for --scheduler fair "
                            "(default: shard sources x step cap)")
    fleet.add_argument("--top", type=int, default=10,
                       help="sources listed in the report")
    fleet.add_argument("--compare", action="store_true",
                       help="run greedy, rr, and fair on the same plan")
    fleet.add_argument("--bench-out", default=None, metavar="PATH",
                       help="with --compare: write BENCH_fleet.json "
                            "(regression-gate shape) here")
    fleet.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="save the allocation state here")
    fleet.add_argument("--resume", default=None, metavar="PATH",
                       help="continue from a fleet checkpoint")
    fleet.add_argument("--stop-after-rounds", type=int, default=None,
                       help="pause after roughly this many global rounds "
                            "(use with --checkpoint, then --resume)")
    fleet.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write one repro-trace/1 'schedule' span "
                            "per allocation decision")
    fleet.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write a repro-metrics/1 snapshot here")

    profile = commands.add_parser(
        "profile", help="probe a source and summarize what it knows"
    )
    profile_source_group = profile.add_mutually_exclusive_group(required=True)
    profile_source_group.add_argument("--dataset", choices=dataset_names())
    profile_source_group.add_argument("--table", help="a saved table (JSON)")
    profile.add_argument("--records", type=int, default=0)
    profile.add_argument("--probes", type=int, default=25)
    profile.add_argument("--seed", type=int, default=0)

    return parser


def _command_datasets(_args, out) -> int:
    for name in dataset_names():
        info = dataset_info(name)
        out.write(
            f"{name:6s} paper: {info.paper_records:>9,} records / "
            f"{info.paper_distinct_values:>11,} values   "
            f"default scale: {info.default_records:,}\n"
        )
    return 0


def _command_generate(args, out) -> int:
    table = load_dataset(args.dataset, args.records, seed=args.seed)
    io.save_table(table, args.out)
    out.write(
        f"wrote {args.out}: {len(table):,} records, "
        f"{table.num_distinct_values():,} distinct values\n"
    )
    return 0


#: The ``crawl`` arguments stored in every checkpoint as its setup
#: recipe: what ``resume`` needs to rebuild the source and selector.
_SETUP_KEYS = (
    "dataset", "table", "records", "policy", "page_size", "result_limit", "seed",
)


def _open_source(args, setup: dict, trace_context=None):
    """``(table, server)`` for a crawl; ``table`` is None for ``--remote``.

    A local source is rebuilt from the setup recipe: the same recipe is
    built from ``crawl`` arguments and stored inside every checkpoint,
    so ``resume`` reconstructs an identical source.
    """
    if getattr(args, "remote", None):
        from repro.net import RemoteWebDatabase

        return None, RemoteWebDatabase(
            args.remote,
            source=args.remote_source,
            pipeline_depth=args.pipeline_depth,
            trace_context=trace_context,
        )
    if setup.get("dataset"):
        table = load_dataset(
            setup["dataset"], setup.get("records", 0), seed=setup.get("seed", 0)
        )
    else:
        table = io.load_table(setup["table"])
    limit_policy = (
        ResultLimitPolicy(limit=setup["result_limit"], ordering="ranked")
        if setup.get("result_limit")
        else None
    )
    server = SimulatedWebDatabase(
        table, page_size=setup.get("page_size", 10), limit_policy=limit_policy
    )
    return table, server


def _command_fleet(args, out) -> int:
    import json as _json

    from repro.metrics.exporters import JsonlMetricsWriter
    from repro.metrics.registry import MetricsRegistry

    config = FleetConfig(
        n_sources=args.sources,
        budget=args.budget,
        scheduler=args.scheduler,
        seed=args.seed,
        scale=args.scale,
        page_size=args.page_size,
        max_step_rounds=args.max_step_rounds,
        cooldown_rounds=args.cooldown,
        burst=args.burst,
        fairness_every=args.fairness_every,
        shards=args.shards,
    )
    workers = args.workers
    if args.compare:
        results = compare_fleet(config, workers=workers)
        for name in FLEET_SCHEDULERS:
            result = results[name]
            out.write(
                f"{name:8s} {result.total_records:8d} records  "
                f"{result.coverage:6.1%} coverage  "
                f"{result.rounds_used:6d}/{result.budget} rounds  "
                f"{result.cooldown_waits} waits\n"
            )
        baseline = results["rr"].total_records
        if baseline:
            for name in ("greedy", "fair"):
                ratio = results[name].total_records / baseline
                out.write(f"{name} vs rr: {ratio:.3f}x records at budget\n")
        if args.bench_out:
            payload = fleet_bench_payload(results, scale=args.scale)
            with open(args.bench_out, "w", encoding="utf-8") as handle:
                _json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            out.write(f"bench written to {args.bench_out}\n")
        return 0

    registry = MetricsRegistry() if args.metrics_out else None
    result = run_fleet(
        config,
        workers=workers,
        stop_after_rounds=args.stop_after_rounds,
        checkpoint_path=args.checkpoint,
        resume_from=args.resume,
        trace_path=args.trace_out,
        metrics=registry,
    )
    out.write(result.render(top=args.top) + "\n")
    if args.checkpoint:
        out.write(f"checkpoint written to {args.checkpoint}\n")
    if args.trace_out:
        out.write(f"trace written to {args.trace_out}\n")
    if args.metrics_out:
        with JsonlMetricsWriter(args.metrics_out) as writer:
            writer.write_snapshot(registry, step=result.rounds_used,
                                  label="fleet")
        out.write(f"metrics written to {args.metrics_out}\n")
    return 0


def _telemetry_requested(args) -> bool:
    return bool(
        getattr(args, "metrics_out", None)
        or getattr(args, "prometheus_out", None)
        or getattr(args, "progress_every", 0)
    )


def _attach_telemetry(args, out, bus, truth_size=None):
    """Attach a TelemetrySink (+ heartbeat reporter) per the CLI flags.

    Returns ``(telemetry, writer, reporter)``; the caller finishes
    with :func:`_report_telemetry` once the crawl is done.
    """
    from repro.metrics import JsonlMetricsWriter, ProgressReporter, TelemetrySink

    telemetry = bus.attach(TelemetrySink(truth_size=truth_size))
    writer = (
        JsonlMetricsWriter(args.metrics_out) if args.metrics_out else None
    )
    every = getattr(args, "progress_every", 0) or 0
    reporter = bus.attach(
        ProgressReporter(
            every=every,
            stream=out if every else None,
            telemetry=telemetry,
            truth_size=truth_size,
            writer=writer,
        )
    )
    return telemetry, writer, reporter


def _report_telemetry(args, out, telemetry, writer, reporter=None) -> None:
    """Final snapshot, exports, and the summary table."""
    from pathlib import Path

    from repro.metrics import prometheus_text, render_metrics_summary

    if telemetry is None:
        return
    if reporter is not None:
        reporter.close()
    if writer is not None:
        writer.write_snapshot(telemetry.registry, step=None, label="final")
        writer.close()
        out.write(
            f"metrics JSONL: {writer.path} "
            f"({writer.snapshots_written} snapshots)\n"
        )
    if getattr(args, "prometheus_out", None):
        Path(args.prometheus_out).write_text(
            prometheus_text(telemetry.registry), encoding="utf-8"
        )
        out.write(f"prometheus metrics: {args.prometheus_out}\n")
    out.write(render_metrics_summary(telemetry.registry))
    out.write("\n")


def _trace_context(args, setup: dict):
    """A CrawlTraceContext when something reads the active span id.

    A traced remote client names each fetch's span before the request
    goes on the wire (X-Repro-Trace), and profiler samples carry the
    active span label.  The remote source needs it before the bus has
    its sinks, so :func:`_crawl_sinks` only attaches it.
    """
    remote_traced = getattr(args, "remote", None) and args.trace_out
    if not (getattr(args, "sample_profile", None) or remote_traced):
        return None
    from repro.obs import CrawlTraceContext

    return CrawlTraceContext(trace_id=f"{setup['policy']}-s{setup['seed']}")


def _crawl_sinks(args, out, truth_size, trace_context=None, resumed=False):
    """Build one CLI crawl's event bus and the sinks its flags ask for.

    A durable crawl (``--checkpoint-dir``, and every ``resume``) always
    counts with a TelemetrySink: its registry travels in the checkpoint
    and draws the roll-up table.  The sampling profiler is built here
    and started by the caller around the crawl itself.
    """
    from repro.runtime.events import EventBus

    bus = EventBus()
    telemetry = writer = reporter = tracer = profiler = None
    if args.checkpoint_dir is not None or _telemetry_requested(args):
        telemetry, writer, reporter = _attach_telemetry(
            args, out, bus, truth_size=truth_size
        )
    if args.trace_out:
        from repro.trace import TraceSink

        tracer = bus.attach(
            TraceSink(
                args.trace_out,
                include_timings=not args.trace_canonical,
                fresh=not resumed,
            )
        )
    if trace_context is not None:
        bus.attach(trace_context)
    if getattr(args, "sample_profile", None):
        from repro.obs import SamplingProfiler

        profiler = SamplingProfiler(
            interval=args.sample_interval,
            label_provider=trace_context.current_label,
        )
    return SimpleNamespace(
        bus=bus, telemetry=telemetry, writer=writer, reporter=reporter,
        tracer=tracer, profiler=profiler,
    )


def _report_crawl(args, out, sinks, runtime, result, table, server, seeds) -> None:
    """Everything ``crawl`` and ``resume`` print once the crawl stopped."""
    from repro.analysis.reports import render_runtime_metrics

    if seeds:
        out.write(f"seed value: {seeds[0]}\n")
    if table is not None:
        out.write(f"source: {table.name} ({len(table):,} records)\n")
    else:
        out.write(
            f"source: {server.name} ({server.truth_size():,} records, "
            f"remote at {server.base_url})\n"
        )
    out.write(
        f"{result.policy}: {result.records_harvested:,} records "
        f"({result.coverage:.1%}) in {result.communication_rounds:,} rounds, "
        f"{result.queries_issued:,} queries, stopped by {result.stopped_by}\n"
    )
    log = server.log
    if log.timed_rounds:
        total = log.total_wall_time
        mean_ms = total / log.timed_rounds * 1e3
        out.write(
            f"wire time: {total:.3f}s over {log.timed_rounds:,} rounds "
            f"(mean {mean_ms:.1f}ms/round)\n"
        )
    if result.aborted_queries:
        out.write(f"aborted queries: {result.aborted_queries}\n")
    if args.history:
        io.history_to_csv(result.history, args.history)
        out.write(f"history written to {args.history}\n")
    if runtime.checkpoint_dir is not None:
        out.write(
            f"checkpoints written: {runtime.checkpoints_written} "
            f"(every {runtime.checkpoint_every} steps) in {args.checkpoint_dir}\n"
        )
        if result.stopped_by == "suspended":
            out.write(
                f"suspended; continue with: repro resume {args.checkpoint_dir}\n"
            )
    if sinks.tracer is not None:
        sinks.tracer.close()
        out.write(
            f"trace written: {sinks.tracer.path} "
            f"({sinks.tracer.spans_written} spans)\n"
        )
    if runtime.checkpoint_dir is not None:
        out.write(render_runtime_metrics(sinks.telemetry.registry))
        out.write("\n")
    if _telemetry_requested(args):
        if table is not None:
            sinks.telemetry.sample_server(server)
        sinks.telemetry.sample_selector(runtime.engine.selector)
        _report_telemetry(
            args, out, sinks.telemetry, sinks.writer, sinks.reporter
        )


def _profiled_crawl(args, out) -> int:
    """Run ``repro crawl`` under cProfile and dump the stats to disk.

    The dump is the raw marshalled stats (load with
    ``pstats.Stats(PATH)`` or any profile viewer); a cumulative-time
    top-``--profile-top`` summary (default 25 functions) is printed to
    the report stream so the hot path is visible without extra tooling.
    """
    import cProfile
    import pstats

    profile_path = args.profile
    top = max(int(getattr(args, "profile_top", 25) or 0), 1)
    args.profile = None  # re-entry runs the real crawl
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        code = _command_crawl(args, out)
    finally:
        profiler.disable()
        profiler.dump_stats(profile_path)
        stats = pstats.Stats(profiler, stream=out)
        stats.sort_stats("cumulative").print_stats(top)
        out.write(f"profile stats written to {profile_path}\n")
    return code


def _crawl_refusal(args) -> Optional[str]:
    """Why ``repro crawl`` cannot combine its flags, or None."""
    if args.remote:
        if args.checkpoint_dir is not None:
            return "--checkpoint-dir requires a local source"
        if args.policy == "practical":
            return "--remote does not support the practical bundle"
    if args.checkpoint_dir is None:
        if args.stop_after_steps is not None:
            return "--stop-after-steps requires --checkpoint-dir"
    elif args.policy == "practical":
        return "--checkpoint-dir does not support the practical bundle"
    return None


def _command_crawl(args, out) -> int:
    if getattr(args, "profile", None):
        return _profiled_crawl(args, out)
    refusal = _crawl_refusal(args)
    if refusal is not None:
        out.write(refusal + "\n")
        return 2
    setup = {key: getattr(args, key) for key in _SETUP_KEYS}
    return _run_crawl(args, out, setup)


def _command_resume(args, out) -> int:
    from repro.runtime.checkpoint import CrawlCheckpoint
    from repro.runtime.crawler import CHECKPOINT_FILE
    from pathlib import Path

    directory = Path(args.checkpoint_dir)
    try:
        checkpoint = CrawlCheckpoint.load(directory / CHECKPOINT_FILE)
    except ReproError as error:
        return _refuse_resume(out, error)
    if not checkpoint.setup:
        out.write(
            "checkpoint carries no setup recipe (API-made); "
            "resume it with RuntimeCrawler.resume() instead\n"
        )
        return 2
    return _run_crawl(args, out, checkpoint.setup, checkpoint=checkpoint)


def _refuse_resume(out, error: ReproError) -> int:
    """A damaged or mismatched checkpoint: one line and exit 2."""
    out.write(f"cannot resume: {error}\n")
    return 2


def _run_crawl(args, out, setup: dict, checkpoint=None) -> int:
    """Build, run and report one crawl: a fresh one, or ``checkpoint``'s."""
    import random

    from repro.runtime.crawler import RuntimeCrawler

    trace_context = _trace_context(args, setup)
    table, server = _open_source(args, setup, trace_context)
    try:
        sinks = _crawl_sinks(
            args, out, server.truth_size(), trace_context,
            resumed=checkpoint is not None,
        )
        # Durable work is tied to --checkpoint-dir: the runtime embeds
        # this telemetry and trace state in every full snapshot.
        durable = {}
        if args.checkpoint_dir is not None:
            durable = {"telemetry": sinks.telemetry, "trace": sinks.tracer}
        seeds = None
        if checkpoint is not None:
            try:
                runtime = RuntimeCrawler.resume(
                    args.checkpoint_dir, server, POLICIES[setup["policy"]](),
                    bus=sinks.bus, **durable,
                )
            except ReproError as error:
                return _refuse_resume(out, error)
            out.write(
                f"resumed from step {checkpoint.step} "
                f"(+{runtime.engine.steps - checkpoint.step} journaled steps "
                f"replayed)\n"
            )
        else:
            if args.policy == "practical":
                engine = build_practical_crawler(
                    server, seed=args.seed, bus=sinks.bus
                )
            else:
                selector = POLICIES[args.policy]()
                engine = CrawlerEngine(
                    server, selector, seed=args.seed, bus=sinks.bus
                )
            runtime = RuntimeCrawler(
                engine,
                checkpoint_dir=args.checkpoint_dir,
                checkpoint_every=args.checkpoint_every,
                snapshot_every=args.snapshot_every,
                setup=setup,
                **durable,
            )
            if table is not None:
                seeds = sample_seed_values(
                    table, 1, random.Random(args.seed), min_frequency=2
                )
            else:
                # The service's /truth/seeds runs the same sampling, so a
                # remote crawl starts where the in-process one does.
                seeds = server.truth_seeds(1, seed=args.seed, min_frequency=2)
        if sinks.profiler is not None:
            sinks.profiler.start()
        try:
            if seeds is None:
                result = runtime.run(stop_after_steps=args.stop_after_steps)
            else:
                result = runtime.crawl(
                    seeds,
                    target_coverage=args.target,
                    max_rounds=args.max_rounds,
                    max_queries=args.max_queries,
                    stop_after_steps=args.stop_after_steps,
                )
        finally:
            if sinks.profiler is not None:
                sinks.profiler.stop()
                stacks = sinks.profiler.write_folded(args.sample_profile)
                out.write(
                    f"profile samples: {args.sample_profile} "
                    f"({sinks.profiler.sample_count} samples, "
                    f"{stacks} folded stacks)\n"
                )
        runtime.close()
        _report_crawl(args, out, sinks, runtime, result, table, server, seeds)
    finally:
        if table is None:
            server.close()
    return 0


def _command_experiment(args, out) -> int:
    from repro.analysis.reports import render_speedup_table
    from repro.runtime.events import EventBus, RingBufferSink

    if args.trace_out and args.name not in TRACEABLE_EXPERIMENTS:
        out.write(
            f"experiment {args.name} does not fan out through the crawl "
            f"grid; --trace-out supports: "
            f"{', '.join(sorted(TRACEABLE_EXPERIMENTS))}\n"
        )
        return 2
    bus = EventBus()
    sink = bus.attach(RingBufferSink(capacity=4096))
    telemetry = writer = reporter = None
    if _telemetry_requested(args):
        telemetry, writer, reporter = _attach_telemetry(args, out, bus)
    workers = parse_workers(getattr(args, "workers", "auto"))
    result = EXPERIMENTS[args.name](
        args, workers, bus, args.trace_out, not args.trace_canonical
    )
    out.write(result.render())
    out.write("\n")
    if args.trace_out:
        from repro.trace import validate_trace_jsonl

        spans = validate_trace_jsonl(args.trace_out)
        out.write(f"trace written: {args.trace_out} ({spans} spans)\n")
    if any(event.kind == "task-completed" for event in sink.events):
        out.write(render_speedup_table(sink.events))
        out.write("\n")
    if sink.dropped:
        out.write(
            f"event ring buffer overflowed: {sink.dropped} events dropped "
            f"(capacity {sink.capacity})\n"
        )
    _report_telemetry(args, out, telemetry, writer, reporter)
    return 0


def _command_trace(args, out) -> int:
    """``repro trace summarize|export|diff`` — span-trace inspection."""
    import json

    from repro.trace import (
        critical_paths,
        diff_summaries,
        folded_stacks,
        load_trace,
        render_diff,
        render_summary,
        summarize,
        write_chrome,
    )

    if args.trace_command == "summarize":
        trace = load_trace(args.trace)
        summary = summarize(trace, top=args.top)
        if args.json:
            out.write(json.dumps(summary, indent=2, sort_keys=True))
            out.write("\n")
        else:
            out.write(render_summary(summary))
            out.write("\n")
        if args.critical_paths:
            out.write("\ncritical paths (dominant root-to-leaf):\n")
            for entry in critical_paths(trace, top=args.top):
                out.write(
                    f"  {entry['count']:>5}x  {entry['path']}  "
                    f"({entry['rounds']} rounds"
                    + (
                        f", {entry['wall_s']:.4f} s"
                        if entry["wall_s"]
                        else ""
                    )
                    + ")\n"
                )
        return 0
    if args.trace_command == "export":
        if not args.chrome and not args.folded:
            out.write("nothing to export: pass --chrome and/or --folded\n")
            return 2
        trace = load_trace(args.trace)
        if args.chrome:
            events = write_chrome(trace, args.chrome)
            out.write(
                f"chrome trace: {args.chrome} ({events} events; load in "
                f"chrome://tracing or ui.perfetto.dev)\n"
            )
        if args.folded:
            lines = folded_stacks(trace)
            with open(args.folded, "w", encoding="utf-8") as handle:
                for line in lines:
                    handle.write(line + "\n")
            out.write(f"folded stacks: {args.folded} ({len(lines)} stacks)\n")
        return 0
    if args.trace_command == "stitch":
        from repro.obs import stitch_traces

        stats = stitch_traces(args.client, args.server, args.out)
        out.write(
            f"stitched trace: {args.out} ({stats['total_spans']} spans; "
            f"{stats['stitched_groups']}/{stats['server_groups']} server "
            f"request groups joined"
            + (
                f", {stats['orphan_groups']} orphaned"
                if stats["orphan_groups"]
                else ""
            )
            + ")\n"
        )
        return 0
    # diff
    summary_a = summarize(load_trace(args.trace_a))
    summary_b = summarize(load_trace(args.trace_b))
    diff = diff_summaries(summary_a, summary_b)
    out.write(render_diff(diff, label_a=args.trace_a, label_b=args.trace_b))
    out.write("\n")
    return 0


def _command_profile(args, out) -> int:
    import random

    from repro.estimation.profiler import profile_source

    if args.dataset:
        table = load_dataset(args.dataset, args.records, seed=args.seed)
    else:
        table = io.load_table(args.table)
    server = SimulatedWebDatabase(table)
    rng = random.Random(args.seed)
    queriable = set(table.schema.queriable)
    probe_values = [
        value for value in table.distinct_values() if value.attribute in queriable
    ]
    rng.shuffle(probe_values)
    report = profile_source(
        server, probe_values[: args.probes * 4], max_probes=args.probes, rng=rng
    )
    out.write(f"source: {table.name} ({len(table):,} records)\n")
    out.write(report.render())
    out.write("\n")
    return 0


def _build_served_sources(args):
    """Mount tables as SimulatedWebDatabase instances for ``serve``."""
    from pathlib import Path

    limit_policy = (
        ResultLimitPolicy(limit=args.result_limit, ordering="ranked")
        if args.result_limit
        else None
    )
    sources = {}
    for name in args.dataset or []:
        table = load_dataset(name, args.records, seed=args.seed)
        sources[name] = SimulatedWebDatabase(
            table, page_size=args.page_size, limit_policy=limit_policy
        )
    for path in args.table or []:
        table = io.load_table(path)
        name = table.name or Path(path).stem
        sources[name] = SimulatedWebDatabase(
            table, page_size=args.page_size, limit_policy=limit_policy
        )
    return sources


def _command_serve(args, out) -> int:
    import signal
    import time

    from repro.net.cluster import SourceCluster
    from repro.server.limits import RateLimiter

    sources = _build_served_sources(args)
    if not sources:
        out.write("nothing to serve: pass --dataset and/or --table\n")
        return 2
    limiter = (
        RateLimiter(
            args.rate_limit,
            args.rate_window,
            ban_after=args.ban_after,
            ban_seconds=args.ban_seconds,
        )
        if args.rate_limit
        else None
    )
    cluster = SourceCluster(
        sources,
        host=args.host,
        port=args.port,
        workers=args.workers,
        rate_limiter=limiter,
        expose_truth=not args.no_truth,
        page_cache_size=args.page_cache,
        trace_spans=bool(args.trace_out),
        trace_timings=not args.trace_canonical,
        trace_path=args.trace_out,
    )
    # Ctrl-C stops the server even where it started with SIGINT ignored,
    # as a background job of a shell script without job control is.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    url = cluster.start()
    out.write(f"cluster: {args.workers} workers ({cluster.mode} mode)\n")
    out.write(f"serving {len(sources)} source(s) at {url}\n")
    for name in sorted(sources):
        out.write(f"  {url}/sources/{name}/query\n")
    out.write("metrics at /metrics; stop with Ctrl-C\n")
    if hasattr(out, "flush"):
        out.flush()
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        out.write("shutting down\n")
    finally:
        snapshot = cluster.stop()
        if snapshot is not None:
            rounds = sum(snapshot.rounds.values())
            out.write(
                f"served {snapshot.requests_served} requests, "
                f"{rounds} rounds\n"
            )
        if args.trace_out:
            out.write(
                f"server trace written to {args.trace_out} "
                f"({len(cluster.trace_groups)} request groups)\n"
            )
    return 0


def _command_top(args, out) -> int:
    """``repro top`` — refresh-loop ops console over ``/debug/status``."""
    from urllib.parse import urlparse

    from repro.obs import run_top

    url = args.url if "//" in args.url else f"http://{args.url}"
    parsed = urlparse(url)
    host = parsed.hostname or "127.0.0.1"
    port = parsed.port or 80
    iterations = 1 if args.once else args.iterations
    frames = run_top(
        host,
        port,
        interval=args.interval,
        iterations=iterations,
        metrics_jsonl=args.metrics_jsonl,
        out=out,
        clear=not args.once,
    )
    return 0 if frames else 1


def _command_loadtest(args, out) -> int:
    from repro.metrics import MetricsRegistry
    from repro.net import run_loadtest, write_bench

    registry = MetricsRegistry()
    report = run_loadtest(
        args.url,
        args.source,
        sessions=args.sessions,
        queries_per_session=args.queries,
        value_pool=args.value_pool,
        seed=args.seed,
        timeout=args.timeout,
        registry=registry,
    )
    out.write(report.summary())
    out.write("\n")
    if args.bench_out:
        write_bench(report, args.bench_out)
        out.write(f"bench written to {args.bench_out}\n")
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Entry point; returns a process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    handler = {
        "datasets": _command_datasets,
        "generate": _command_generate,
        "crawl": _command_crawl,
        "resume": _command_resume,
        "experiment": _command_experiment,
        "trace": _command_trace,
        "fleet": _command_fleet,
        "profile": _command_profile,
        "serve": _command_serve,
        "loadtest": _command_loadtest,
        "top": _command_top,
    }[args.command]
    return handler(args, out)

if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
