"""Check that the end-to-end metrics are steady enough for their bounds.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py

Runs ``run.py --trace 0`` for ``BENCHMARK.json``'s ``run_seconds`` once
per (set, seed, workload): two sets of ten seeds (1-10, then 11-20),
workloads interleaved so a noisy spell of the machine hits all of them
alike.  For every workload and end-to-end metric it prints each set's
median and quartiles and the spread (interquartile distance over the
median), and checks them against ``BENCHMARK.json``:

* the spread of each set stays within the metric's bound, and below a
  third of it for a comfortable margin (reported, not enforced);
* the two sets' medians differ by no more than the bound, in either
  direction: which set runs first is arbitrary;
* the share of failed operations is identical in every set.

Results are also written to ``perfbench/out/steadiness.json``.  Exits 1
when a bound is broken.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SETS = 2
SEEDS_PER_SET = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        capture_output=True, text=True, timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}: "
            f"{completed.stderr.strip()[-1000:]}"
        )
    return json.loads(lines[-1])


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
        "values": values,
    }


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``.

    Negative when ``second`` is better.
    """
    change = (second - first) / first
    return -change if better == "higher" else change


def main() -> int:
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for set_index in range(SETS):
        for offset in range(SEEDS_PER_SET):
            seed = 1 + set_index * SEEDS_PER_SET + offset
            for workload in workloads:
                result = run_once(workload, seed, seconds)
                results[workload][set_index].append(result)
                values = " ".join(
                    f"{name}={m['value']:.4g}" for name, m in result["metrics"].items()
                )
                print(f"set {set_index + 1} seed {seed} {workload}: {values}", flush=True)

    ok = True
    report = {}
    for workload in workloads:
        report[workload] = {}
        shares = {
            round(sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs), 12)
            for runs in results[workload]
        }
        if len(shares) != 1 or not all(r["correct"] for s in results[workload] for r in s):
            ok = False
            print(f"{workload}: failed-share or correctness differs between sets: {shares}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [
                summarize([r["metrics"][name]["value"] for r in runs])
                for runs in results[workload]
            ]
            shift = worse_by(sets[0]["median"], sets[1]["median"], metric["better"])
            margin_ok = all(s["spread"] <= bound / 3 for s in sets)
            agree = all(s["spread"] <= bound for s in sets) and abs(shift) <= bound
            ok = ok and agree
            report[workload][name] = {"sets": sets, "worse_by": shift, "bound": bound,
                                      "agree": agree, "within_third": margin_ok}
            cells = "  ".join(
                f"set{i + 1} {s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] "
                f"spread {s['spread']:.3f}"
                for i, s in enumerate(sets)
            )
            print(
                f"{workload:13s} {name:14s} {cells}  worse_by {shift:+.3f} "
                f"bound {bound}  {'agree' if agree else 'DISAGREE'}"
                f"{'' if margin_ok else '  (spread above a third of the bound)'}"
            )
    out = BENCH_DIR / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
