"""Benchmark entry point: run one workload for a while and report.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload crawl-local --seed 1 --seconds 30 --trace 0

A round is one workload crawl in a fresh interpreter
(``crawl_round.py``): it builds its inputs from a seed, crawls, and
checks the outputs.  A run cycles through the workload's input variants
(see ``run_rounds``) until the next round would end past ``--seconds``;
every variant runs at least once.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` pairs a traced and an untraced round per variant, reports
the per-layer metrics (medians over traced rounds) and writes
``perfbench/out/<workload>/traced-report.json``, which also gives each
figure's sample count, the percentile behind each ``_tail_ms``, the
spans files, and the traced-vs-untraced overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
#: Input variants per run, each one round (a fresh interpreter): enough
#: to average out how much one seed's inputs differ from another's,
#: few enough that one cycle fits a run.
VARIANTS = {"crawl-local": 5, "crawl-remote": 3, "fleet-polite": 6}
WORKLOADS = tuple(VARIANTS)
#: Variants a traced run covers; per-layer figures carry no bound.
TRACED_VARIANTS = 2
#: A round that takes longer than this is a hang, not a measurement.
ROUND_TIMEOUT = 150.0


def _fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 1


def _group_alive(group: int) -> bool:
    """Whether a process of ``group`` is still running (zombies have ended)."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                state, _, pgrp = handle.read().rsplit(")", 1)[1].split()[:3]
        except OSError:
            continue
        if int(pgrp) == group and state != "Z":
            return True
    return False


def _stop_group(process: subprocess.Popen) -> None:
    """End the round's whole process group and wait until it has ended.

    The group holds the round, the server worker it forks, and the
    helper process multiprocessing starts for shared memory; those exit
    on their own once the round has.  Whatever still runs after ten
    seconds is killed.
    """
    if process.poll() is None:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
    deadline = time.monotonic() + 10.0
    while _group_alive(process.pid):
        if time.monotonic() > deadline:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                return
        time.sleep(0.02)


def run_round(workload: str, seed: int, out: Path, traced: bool) -> dict:
    """Start one round in a fresh interpreter; returns its parsed result."""
    command = [
        sys.executable,
        str(BENCH_DIR / "crawl_round.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--out", str(out),
    ]
    if traced:
        command.append("--trace")
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
    spawned = time.monotonic()
    # Own session, so a hung round is killed with the server worker it forked.
    process = subprocess.Popen(
        command,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=ROUND_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{workload} round did not finish in {ROUND_TIMEOUT:.0f} s")
    finally:
        _stop_group(process)
    ended = time.monotonic()
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} round exited {process.returncode}: {stderr.strip()[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["traced"] = traced
    result["duration_s"] = ended - spawned
    result["setup_s"] = (
        result["t_crawl_end"] - spawned - result["crawl_s"] - result["excluded_s"]
    )
    return result


def run_rounds(workload: str, seed: int, seconds: float, trace: bool, out: Path) -> list:
    """Rounds cycling over the workload's input variants.

    Variant ``v`` of seed ``s`` builds its inputs from seed
    ``s * 1000 + v``, so a run averages over several inputs and runs with
    different seeds share none.  Every variant runs at least once; more
    rounds follow while the next one is expected to end within
    ``seconds``.  A traced run takes a traced and an untraced round of
    each variant, so the two compare on the same inputs.
    """
    variants = TRACED_VARIANTS if trace else VARIANTS[workload]
    modes = (True, False) if trace else (False,)
    rounds = []
    started = time.monotonic()
    while True:
        variant = (len(rounds) // len(modes)) % variants
        for traced in modes:
            round_dir = out / ("traced" if traced else "untraced")
            result = run_round(workload, seed * 1000 + variant, round_dir, traced)
            result["variant"] = variant
            rounds.append(result)
        elapsed = time.monotonic() - started
        step = elapsed / (len(rounds) // len(modes))
        if len(rounds) >= variants * len(modes) and elapsed + step > seconds:
            return rounds


def by_variant(rounds: list) -> list:
    variants = {}
    for result in rounds:
        variants.setdefault(result["variant"], []).append(result)
    return [variants[key] for key in sorted(variants)]


def end_to_end(rounds: list) -> dict:
    """Variant medians combined: rates as ratios of sums, the rest as means."""
    groups = by_variant(rounds)

    def median_of(group, key):
        return statistics.median(r[key] for r in group)

    records = sum(group[0]["records"] for group in groups)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "records_per_s": records / sum(median_of(g, "crawl_s") for g in groups),
        "harvest_rate": records / sum(group[0]["rounds"] for group in groups),
        "cpu_s": statistics.mean(median_of(g, "cpu_s") for g in groups),
        "peak_rss_mb": statistics.mean(median_of(g, "peak_rss_mb") for g in groups),
    }


#: Per-layer figure -> the layers key holding its sample count.
_SAMPLE_COUNT = {
    "crawler.step_p50_ms": "crawler.steps",
    "crawler.step_tail_ms": "crawler.steps",
    "net.client.fetch_p50_ms": "net.client.fetch_calls",
    "net.client.fetch_tail_ms": "net.client.fetch_calls",
    "net.server.handle_s": "net.client.fetch_calls",
}


def per_layer(rounds: list, metrics: list) -> tuple:
    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds if not r["traced"]]
    overhead = (
        sum(statistics.median(r["crawl_s"] for r in g) for g in by_variant(traced))
        / sum(statistics.median(r["crawl_s"] for r in g) for g in by_variant(untraced))
        - 1.0
    )
    values, report = {}, {}
    for metric in metrics:
        name = metric["name"]
        if name == "bench.trace_overhead":
            value, samples = overhead, len(traced) + len(untraced)
        else:
            value = statistics.median(r["layers"].get(name, 0) for r in traced)
            count_key = _SAMPLE_COUNT.get(name)
            if count_key is None and name.endswith("_s"):
                count_key = name[: -len("_s")].removesuffix("_self") + "_calls"
            samples = (
                statistics.median(r["layers"][count_key] for r in traced)
                if count_key in traced[0]["layers"]
                else 1
            )
        values[name] = value
        entry = {"value": value, "unit": metric["unit"], "samples": samples}
        if name.endswith("_tail_ms"):
            pct_key = name.replace("_tail_ms", "_tail_pct")
            entry["percentile"] = statistics.median(
                r["layers"].get(pct_key, 50.0) for r in traced
            )
        report[name] = entry
    return values, report, overhead


def operations(rounds: list) -> tuple:
    totals: dict = {}
    for result in rounds:
        for key, count in result["ops"].items():
            totals[key] = totals.get(key, 0) + count
        for status, count in result["info"].get("http_statuses", {}).items():
            key = f"http_status_{status}"
            totals[key] = totals.get(key, 0) + count
    attempted = (
        totals.get("queries", 0)
        + totals.get("http_requests", 0)
        + totals.get("fleet_steps", 0)
    )
    failed = totals.get("queries_failed", 0) + totals.get("http_failed", 0)
    return attempted, failed, totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so a running round's process group is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    spec_path = Path.cwd() / "BENCHMARK.json"
    if not (Path.cwd() / "src" / "repro").is_dir() or not spec_path.is_file():
        return _fail("run from the root of a checkout holding src/repro and BENCHMARK.json")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    out = BENCH_DIR / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    try:
        rounds = run_rounds(args.workload, args.seed, args.seconds, bool(args.trace), out)
    except RuntimeError as error:
        return _fail(str(error))

    (out / "rounds.json").write_text(json.dumps(rounds, indent=1) + "\n", encoding="utf-8")
    failures = sorted({f for r in rounds for f in r["failures"]})
    for group in by_variant(rounds):
        if len({(r["records"], r["rounds"]) for r in group}) != 1:
            failures.append("rounds with identical inputs harvested differently")
    correct = not failures and all(r["correct"] for r in rounds)
    attempted, failed, totals = operations(rounds)

    if args.trace:
        values, report, overhead = per_layer(rounds, spec["per_layer"])
        metrics = spec["per_layer"]
        traced = [r for r in rounds if r["traced"]]
        report_path = out / "traced-report.json"
        report_path.write_text(
            json.dumps(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "traced_rounds": len(traced),
                    "untraced_rounds": len(rounds) - len(traced),
                    "trace_overhead": overhead,
                    "spans_files": sorted(
                        {
                            path
                            for r in traced
                            for path in (
                                r["info"].get("spans_path"),
                                r["info"].get("server_spans_path"),
                            )
                            if path
                        }
                    ),
                    "metrics": report,
                    "info": traced[-1]["info"],
                },
                indent=2,
            )
            + "\n",
            encoding="utf-8",
        )
        print(f"traced report: {report_path}")
    else:
        values = end_to_end(rounds)
        metrics = spec["end_to_end"]

    for key, count in sorted(totals.items()):
        print(f"operations {key}: {count}")
    for failure in failures:
        print(f"check failed: {failure}")
    print(f"rounds: {len(rounds)}")
    for metric in metrics:
        print(f"{metric['name']}: {values[metric['name']]:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    metric["name"]: {
                        "value": values[metric["name"]],
                        "unit": metric["unit"],
                    }
                    for metric in metrics
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
