"""Run one round of one workload in this (fresh) interpreter.

Started by ``run.py`` with ``PYTHONPATH=src``; prints one JSON object on
its last line of standard output.  With ``--trace`` the round wraps the
program's layer boundaries (see ``workloads.trace_boundaries``) before
building anything, and writes its spans to ``<out>/spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    recorder = None
    if args.trace:
        from spans import Recorder

        recorder = Recorder()
        recorder.watch_gc()
    import workloads

    if recorder is not None:
        workloads.trace_boundaries(recorder)
    args.out.mkdir(parents=True, exist_ok=True)
    result = workloads.RUNNERS[args.workload](args.seed, args.out, recorder)
    if recorder is not None:
        spans_path = args.out / "spans.jsonl"
        result["info"]["spans"] = recorder.write_spans(spans_path)
        result["info"]["spans_path"] = str(spans_path)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
