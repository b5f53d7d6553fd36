"""The simulated structured web source.

:class:`SimulatedWebDatabase` plays the role of the paper's "server
programs that mimic Web server behaviour on top of the database server":
it owns a universal table, guards it with a
:class:`~repro.server.interface.QueryInterface`, serves paginated,
possibly truncated result pages, and charges one communication round per
page request through a :class:`~repro.server.network.CommunicationLog`.

The crawler must not peek past this class — everything it learns about
the database comes from submitted pages.  Ground-truth accessors used by
experiment harnesses for coverage measurement are prefixed ``truth_`` to
keep that boundary visible in calling code.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Any, List, Optional

from repro.core.errors import PaginationError
from repro.core.query import ConjunctiveQuery, Query
from repro.core.table import RelationalTable
from repro.server.interface import QueryInterface
from repro.server.limits import ResultLimitPolicy
from repro.server.network import CommunicationLog
from repro.server.pagination import ResultPage
from repro.server.service import render_page


class SimulatedWebDatabase:
    """A web database reachable only through its query interface.

    Parameters
    ----------
    table:
        The backend universal table.
    page_size:
        ``k`` — records per result page (the paper defaults to 10).
    limit_policy:
        Result-size cap and ranking (Section 5.4); unlimited by default.
    report_total:
        Whether pages carry ``num(q, DB)``, the total match count most
        real sources display ("95 results found").
    interface:
        Defaults to the schema's queriable attributes without a keyword
        box; pass :meth:`QueryInterface.keyword_only` etc. to vary.
    order_cache_size:
        Entries kept in the per-query result-ordering LRU cache.  A
        long crawl issues each query many times (one round per page),
        so caching the ordered match list is what keeps pagination
        O(page); the bound keeps memory flat over millions of distinct
        queries.  Hits and misses are counted on the communication log
        (``log.cache_hits`` / ``log.cache_misses``).
    """

    #: Default bound on the result-ordering LRU (distinct queries).
    DEFAULT_ORDER_CACHE_SIZE = 4096

    def __init__(
        self,
        table: RelationalTable,
        page_size: int = 10,
        limit_policy: Optional[ResultLimitPolicy] = None,
        report_total: bool = True,
        interface: Optional[QueryInterface] = None,
        order_cache_size: int = DEFAULT_ORDER_CACHE_SIZE,
    ) -> None:
        if order_cache_size < 1:
            raise ValueError(
                f"order_cache_size must be >= 1, got {order_cache_size}"
            )
        self.table = table
        self.page_size = page_size
        self.limit_policy = limit_policy or ResultLimitPolicy()
        self.report_total = report_total
        self.interface = interface or QueryInterface.from_schema(
            table.schema, name=table.name
        )
        self.log = CommunicationLog()
        self.order_cache_size = order_cache_size
        # Keyed by interned id (see _order_key), not by the Query itself,
        # so lookups on the pagination hot path cost an int hash instead
        # of re-hashing the query's strings on every page request.
        self._order_cache: "OrderedDict[Any, List[int]]" = OrderedDict()

    # ------------------------------------------------------------------
    # The crawler-facing API
    # ------------------------------------------------------------------
    def submit(self, query: Query, page_number: int = 1) -> ResultPage:
        """Answer one page request; costs one communication round.

        Raises
        ------
        UnsupportedQueryError
            If the interface rejects the query (no round is charged —
            the form cannot even be submitted).
        PaginationError
            If the page number is out of range (a round *is* charged;
            the crawler had to ask to find out).
        """
        self.interface.validate(query)
        ordered = self._ordered_matches(query)
        total = len(ordered)
        accessible = self.limit_policy.accessible(total)
        num_pages = math.ceil(accessible / self.page_size)
        if page_number < 1 or page_number > max(num_pages, 1):
            self.log.record()
            raise PaginationError(
                f"page {page_number} out of range: query {query} has "
                f"{num_pages} page(s)"
            )
        start = (page_number - 1) * self.page_size
        stop = min(start + self.page_size, accessible)
        records = tuple(self.table.project(ordered[start:stop]))
        page = ResultPage(
            query=query,
            page_number=page_number,
            records=records,
            total_matches=total if self.report_total else None,
            accessible_matches=accessible,
            num_pages=num_pages,
            page_size=self.page_size,
        )
        self.log.record()
        return page

    def submit_xml(self, query: Query, page_number: int = 1) -> str:
        """Like :meth:`submit` but returns the XML wire format.

        Used by extractor-based crawls that parse responses the way the
        paper's Amazon experiment consumed AWS XML documents.
        """
        return render_page(self.submit(query, page_number))

    def submit_html(
        self, query: Query, page_number: int = 1, annotated: bool = True
    ) -> str:
        """Like :meth:`submit` but returns an HTML result page.

        ``annotated=False`` renders the plain-table template whose only
        schema hints are its header labels — the wrapper-induction case.
        """
        from repro.server.html import render_html_page

        return render_html_page(self.submit(query, page_number), annotated=annotated)

    @property
    def rounds(self) -> int:
        """Communication rounds consumed so far."""
        return self.log.rounds

    # ------------------------------------------------------------------
    # Durable-runtime state (see repro.runtime)
    # ------------------------------------------------------------------
    def runtime_state(self) -> dict:
        """Dynamic server state a resumed crawl must restore.

        The simulated source itself is a pure function of its table and
        policies (both rebuilt from config on resume); only the round
        counter is crawl-dependent.
        """
        return {"rounds": self.log.rounds}

    def load_runtime_state(self, state: dict) -> None:
        self.log.rounds = state["rounds"]

    # ------------------------------------------------------------------
    # Ground truth — for experiment harnesses only
    # ------------------------------------------------------------------
    def truth_size(self) -> int:
        """True number of records (unknown to the crawler)."""
        return len(self.table)

    def truth_count(self, query: Query) -> int:
        """True ``num(q, DB)`` (unknown to the crawler before querying)."""
        return self.table.count(query)

    def truth_coverage(self, record_ids) -> float:
        """Fraction of the true database covered by ``record_ids``."""
        size = len(self.table)
        if size == 0:
            return 0.0
        known = sum(1 for record_id in record_ids if record_id in self.table)
        return known / size

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _order_key(self, query) -> Any:
        """The query's cache key — its interned id on this server's table.

        Equality queries key by the value's dense id (a plain int),
        keyword queries by ``("k", token id)``, conjunctions by
        ``("c", id tuple)``; queries over values the table has never
        seen fall back to ``("q", query)``, *not* to a shared sentinel —
        collapsing all unknown-value queries onto one key would alias
        their (empty) cache entries and corrupt the hit/miss telemetry.

        The computed key is memoized on the query object itself (tagged
        with this server, since ids are per-table), so every later page
        request of the same query object skips string hashing entirely.
        Key equivalence classes coincide with query equality, so cache
        hits, misses, and evictions are exactly those of a query-keyed
        cache.
        """
        memo = query.__dict__.get("_webdb_order_key")
        if memo is not None and memo[0] is self:
            return memo[1]
        key: Any
        if isinstance(query, ConjunctiveQuery):
            value_id = self.table.value_id
            vids = []
            for pair in query.predicates:
                vid = value_id(pair)
                if vid is None:
                    vids = None
                    break
                vids.append(vid)
            key = ("c", tuple(vids)) if vids is not None else ("q", query)
        elif query.is_keyword:
            tid = self.table.keyword_id(query.value)
            key = ("k", tid) if tid is not None else ("q", query)
        else:
            vid = self.table.value_id(query.as_attribute_value())
            key = vid if vid is not None else ("q", query)
        # Frozen dataclasses still carry a __dict__; writing there skips
        # the frozen guard without mutating any compared field.  Pickle
        # and deepcopy drop the memo (see Query.__getstate__).
        query.__dict__["_webdb_order_key"] = (self, key)
        return key

    def _ordered_matches(self, query: Query) -> List[int]:
        """The query's full ordered match list, LRU-cached.

        Safe to cache and safe to evict: ``limit_policy.order`` is a
        pure function of (seed, query, match ids), so a recomputed
        entry is identical to the evicted one — the bound changes
        memory use, never results.
        """
        cache = self._order_cache
        key = self._order_key(query)
        cached = cache.get(key)
        if cached is not None:
            cache.move_to_end(key)
            self.log.cache_hits += 1
            return cached
        self.log.cache_misses += 1
        ordered = self.limit_policy.order(query, self.table.match(query))
        cache[key] = ordered
        if len(cache) > self.order_cache_size:
            cache.popitem(last=False)
        return ordered
