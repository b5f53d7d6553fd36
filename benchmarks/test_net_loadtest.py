"""Network-lane load benchmark: ≥500 concurrent sessions vs a cluster.

Starts the multi-core serving lane (:class:`repro.net.SourceCluster` —
``SO_REUSEPORT`` worker processes, rendered pages cached) and drives
:func:`repro.net.run_loadtest` at ``SESSIONS`` concurrent sessions
(scaled by ``REPRO_BENCH_SCALE``, with a hard floor of 500 at default
scale per the acceptance bar).  The run must complete
with zero transport errors and emit latency percentiles.

The emitted ``BENCH_net.json`` (path overridable via
``REPRO_BENCH_NET_OUT``) matches the ``scripts/check_bench_regression.py``
shape; the gated ratio is ``concurrency_speedup`` — concurrent over
single-session throughput measured back-to-back in one process, the
same machine-independent construction as the hot-path speedup.  Both
legs warm their connections before timing (see
:mod:`repro.net.loadtest`); worker count and serving mode are recorded
in the bench provenance.

``REPRO_BENCH_NET_WORKERS`` overrides the worker count (default:
``min(4, cpu_count)``).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from conftest import emit, scaled

from repro.datasets import generate_ebay
from repro.metrics import MetricsRegistry
from repro.net import SourceCluster, run_loadtest, write_bench
from repro.server import SimulatedWebDatabase

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1"))
#: The acceptance bar: at default scale the fleet is at least 500
#: concurrent sessions.  Reduced-scale smoke runs shrink with SCALE
#: but never below 50.
SESSIONS = max(int(500 * SCALE), 50 if SCALE < 1 else 500)
QUERIES_PER_SESSION = 2
VALUE_POOL = 64
RECORDS = scaled(4_000)
WORKERS = int(
    os.environ.get("REPRO_BENCH_NET_WORKERS", str(min(4, os.cpu_count() or 1)))
)
#: The acceptance floor for the gated ratio at full scale.
SPEEDUP_FLOOR = 2.5

_OUT_PATH = Path(
    os.environ.get(
        "REPRO_BENCH_NET_OUT",
        Path(__file__).resolve().parent.parent / "BENCH_net.json",
    )
)


def test_net_loadtest_sustains_concurrent_sessions():
    table = generate_ebay(RECORDS, seed=1)
    cluster = SourceCluster(
        {"ebay": SimulatedWebDatabase(table, page_size=10)},
        workers=WORKERS,
    )
    registry = MetricsRegistry()
    with cluster as url:
        report = run_loadtest(
            url,
            "ebay",
            sessions=SESSIONS,
            queries_per_session=QUERIES_PER_SESSION,
            value_pool=VALUE_POOL,
            seed=3,
            registry=registry,
        )
        snapshot = cluster.snapshot()

    emit(report.summary())
    cache = snapshot.cache_stats
    emit(
        f"cluster: {WORKERS} worker(s), {cluster.mode} mode, "
        f"{snapshot.requests_served} requests served, "
        f"cache hits/misses={cache[0]}/{cache[1]}" if cache else "no cache"
    )

    assert report.sessions == SESSIONS
    assert report.errors == 0
    assert report.requests >= SESSIONS * QUERIES_PER_SESSION
    # Percentiles are real measurements, ordered as percentiles must be.
    assert 0 < report.latency_p50 <= report.latency_p95 <= report.latency_p99
    assert report.requests_per_sec > 0
    if SCALE >= 1:
        # The multi-core lane's reason to exist: concurrent sessions
        # must be well past serial throughput, not just level with it.
        assert report.concurrency_speedup >= SPEEDUP_FLOOR, report.summary()

    payload = write_bench(
        report,
        _OUT_PATH,
        scale=SCALE,
        provenance={
            "workers": WORKERS,
            "mode": cluster.mode,
            "page_cache": True,
            "cpu_count": os.cpu_count(),
        },
    )
    emit(f"wrote {_OUT_PATH}")
    assert json.loads(_OUT_PATH.read_text()) == payload
