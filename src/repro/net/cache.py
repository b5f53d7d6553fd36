"""Rendered-page cache for the HTTP front end.

A result page is a pure function of ``(source, query, page_number,
format)``: the simulated source is immutable, the limit policy's
ordering is deterministic, and both wire envelopes (XML and JSON) are
deterministic serializations.  The service therefore caches the
*rendered byte envelope* — not the page object — so a repeated request
costs a dict lookup plus one round-charge instead of match + order +
project + serialize.

Semantics the cache must preserve (and tests pin):

- **Byte identity.**  A cache hit returns exactly the bytes a fresh
  render would produce; XML and JSON envelopes are compared
  byte-for-byte against uncached renders across the paper datasets.
- **Round accounting.**  A hit never touches the source's submit path,
  so the caller re-charges the communication round itself with the
  entry's recorded result count (the entry remembers how many records
  the page carried — the same count ``submit`` would have logged).
  Out-of-range pages are cached too (they are equally pure), and their
  hits charge a zero-record round, exactly like the
  ``PaginationError`` path.
- **Validators.**  Every 200 entry carries a strong ``ETag`` (content
  hash of the body), enabling ``If-None-Match`` → 304 revalidation in
  :class:`~repro.net.server.SourceService` and
  :class:`~repro.net.client.RemoteWebDatabase`.

The cache is a bounded LRU guarded by its own lock (never a source
lock), with hit/miss/eviction counters in :mod:`repro.metrics`.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional, Tuple

from repro.metrics import MetricsRegistry

#: Default bound on cached rendered pages (entries, not bytes).
DEFAULT_PAGE_CACHE_SIZE = 4096


def make_etag(body: bytes) -> str:
    """A strong entity tag for a rendered envelope (content hash)."""
    return f'"{hashlib.md5(body).hexdigest()}"'


def etag_matches(if_none_match: str, etag: str) -> bool:
    """RFC 9110 ``If-None-Match`` evaluation against one strong tag.

    Supports ``*``, comma-separated candidate lists, and weak
    (``W/``-prefixed) candidates — weak comparison is fine for 304s.
    """
    if not if_none_match:
        return False
    if if_none_match.strip() == "*":
        return True
    for candidate in if_none_match.split(","):
        candidate = candidate.strip()
        if candidate.startswith("W/"):
            candidate = candidate[2:]
        if candidate == etag:
            return True
    return False


@dataclass(frozen=True)
class CachedPage:
    """One rendered response: status line to body, ready for the wire."""

    status: int
    content_type: str
    body: bytes
    etag: str
    #: Records the page carried (what ``submit`` logged); 0 for cached
    #: out-of-range errors, whose round also charged zero records.
    records: int

    @classmethod
    def build(
        cls, status: int, content_type: str, body: bytes, records: int
    ) -> "CachedPage":
        return cls(status, content_type, body, make_etag(body), records)


class PageRenderCache:
    """Bounded LRU of :class:`CachedPage` entries.

    Thread-safe under its own lock, because a cluster worker's control
    thread reads :meth:`stats` (snapshots, the debug plane) while the
    worker's event loop serves pages; the lock is held only for the
    dict operation, never while rendering.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_PAGE_CACHE_SIZE,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, CachedPage]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        if registry is not None:
            self._lookups = registry.counter(
                "net_server_page_cache_total",
                "Rendered-page cache lookups, by result.",
                labels=("result",),
            )
            self._entries_gauge = registry.gauge(
                "net_server_page_cache_entries",
                "Rendered pages currently cached.",
            )
        else:
            self._lookups = None
            self._entries_gauge = None

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Optional[CachedPage]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
        if self._lookups is not None:
            self._lookups.inc_key(("hit",) if entry is not None else ("miss",))
        return entry

    def put(self, key: Hashable, entry: CachedPage) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
            size = len(self._entries)
        if self._entries_gauge is not None:
            self._entries_gauge.set_key((), size)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
        if self._entries_gauge is not None:
            self._entries_gauge.set_key((), 0)

    def stats(self) -> Tuple[int, int, int, int]:
        """``(hits, misses, evictions, entries)`` right now."""
        with self._lock:
            return self.hits, self.misses, self.evictions, len(self._entries)
