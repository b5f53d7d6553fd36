"""The network lane: serve simulated sources over HTTP and crawl them.

The paper's live experiment crawls a real web service (Amazon's XML
API) over the wire; this package gives the reproduction the same real
network boundary:

- :mod:`repro.net.server` — a stdlib-only asyncio HTTP front end that
  mounts :class:`~repro.server.webdb.SimulatedWebDatabase` instances at
  ``/sources/<name>/query``, serving the existing XML envelope plus a
  JSON content type, with paging, per-client rate limits,
  ``Retry-After`` politeness headers, and a Prometheus ``/metrics``
  endpoint;
- :mod:`repro.net.client` — :class:`RemoteWebDatabase`, the crawler's
  HTTP client: it implements the same surface the crawler engine uses
  on the in-process source (``interface``/``page_size``/``submit``/
  ``rounds``) on the caller's thread, with keep-alive connection
  reuse, page pipelining (page *n+1* is requested once page *n* is
  consumed and read when it is needed), retry/backoff honoring
  ``Retry-After``, typed errors for malformed answers, and per-request
  latency recorded into :mod:`repro.metrics` histograms — so
  :class:`~repro.runtime.crawler.RuntimeCrawler`, the event bus, trace
  spans, and checkpoints all work unchanged over the network;
- :mod:`repro.net.loadtest` — an async load-test harness driving
  hundreds-to-thousands of concurrent crawl sessions against one
  service process, reporting throughput and p50/p95/p99 latency;
- :mod:`repro.net.cluster` — :class:`SourceCluster`, how sources are
  served (``repro serve`` runs one): N ``SO_REUSEPORT`` worker
  processes, one by default, serving one port from the same tables,
  with a control plane that merges per-worker accounting
  deterministically;
- :mod:`repro.net.cache` — the rendered-page LRU behind the service's
  ``ETag``/``If-None-Match`` revalidation.

The in-process path remains the deterministic fast lane; an end-to-end
test pins that a greedy-link crawl over HTTP discovers the
byte-identical record set and communication-round count.
"""

from repro.net.cache import PageRenderCache
from repro.net.client import RemoteSourceError, RemoteWebDatabase
from repro.net.cluster import ClusterSnapshot, SourceCluster
from repro.net.loadtest import LoadTestReport, run_loadtest, write_bench
from repro.net.protocol import (
    SourceDescriptor,
    decode_query_params,
    encode_query_params,
    parse_page_json,
    render_page_json,
)
from repro.net.server import AsyncSourceServer, ServerThread, SourceService

__all__ = [
    "AsyncSourceServer",
    "ClusterSnapshot",
    "LoadTestReport",
    "PageRenderCache",
    "RemoteSourceError",
    "RemoteWebDatabase",
    "ServerThread",
    "SourceCluster",
    "SourceDescriptor",
    "SourceService",
    "decode_query_params",
    "encode_query_params",
    "parse_page_json",
    "render_page_json",
    "run_loadtest",
    "write_bench",
]
