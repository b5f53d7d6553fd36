"""Wire protocol shared by the HTTP front end and the crawler client.

One request = one result page, matching the paper's communication-round
cost model: the URL names the source and carries the query, the
response carries one :class:`~repro.server.pagination.ResultPage` in
either the existing XML envelope (:mod:`repro.server.service`) or the
JSON rendering defined here.  Queries travel as repeated ``a``/``v``
query-string pairs so attribute names and values survive any characters
URL encoding can carry — no home-grown ``attr:value`` splitting.

Routes
------

==============================================  =======================
``GET /``                                       service index (JSON)
``GET /healthz``                                liveness probe
``GET /metrics``                                Prometheus text format
``GET /sources``                                mounted source list
``GET /sources/<name>/meta``                    :class:`SourceDescriptor`
``GET /sources/<name>/query?...&page=N``        one result page
``GET /sources/<name>/truth/size``              ground truth (harness)
``GET /sources/<name>/truth/seeds?n=&seed=``    seed-value sampling
``GET /sources/<name>/truth/sample?n=&seed=``   probe-value sampling
==============================================  =======================

Query encoding: ``?kw=value`` for keyword queries, ``?a=attr&v=value``
for one equality predicate, repeated ``a``/``v`` pairs (zipped in
order) for conjunctions.  ``format=json|xml`` selects the content
type; ``page=N`` the 1-based page.

The ``truth/*`` routes exist for experiment harnesses and the load-test
driver only — they are the network mirror of the ``truth_`` prefix on
:class:`~repro.server.webdb.SimulatedWebDatabase`, and a service can be
started with ``expose_truth=False`` to seal them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple
from urllib.parse import urlencode

from repro.core.errors import QueryError, ReproError
from repro.core.query import AnyQuery, ConjunctiveQuery, Query
from repro.core.records import Record
from repro.core.values import AttributeValue
from repro.runtime.serialize import (
    SerializationError,
    decode_query,
    decode_record,
    encode_query,
    encode_record,
)
from repro.server.interface import QueryInterface
from repro.server.pagination import ResultPage

#: Content types the query endpoint can serve.
FORMATS = ("json", "xml")

#: JSON envelope schema tag, carried on every JSON page.
JSON_SCHEMA = "repro-page/1"


class ProtocolError(ReproError):
    """A malformed request or response on the network lane."""


# ----------------------------------------------------------------------
# Queries <-> URL query strings
# ----------------------------------------------------------------------
def encode_query_params(query: AnyQuery) -> List[Tuple[str, str]]:
    """Render a query as URL query-string pairs (order significant)."""
    if isinstance(query, ConjunctiveQuery):
        pairs: List[Tuple[str, str]] = []
        for predicate in query.predicates:
            pairs.append(("a", predicate.attribute))
            pairs.append(("v", predicate.value))
        return pairs
    if query.is_keyword:
        return [("kw", query.value)]
    return [("a", query.attribute or ""), ("v", query.value)]


def query_url(
    base: str, query: AnyQuery, page_number: int = 1, format: str = "json"
) -> str:
    """Build the query-endpoint URL for one page request."""
    params = encode_query_params(query) + [
        ("page", str(page_number)),
        ("format", format),
    ]
    return f"{base}?{urlencode(params)}"


def decode_query_params(params: Mapping[str, Sequence[str]]) -> AnyQuery:
    """Reconstruct the query from parsed query-string parameters.

    ``params`` is the :func:`urllib.parse.parse_qs` shape (name → list
    of values, in document order).  Anything that does not make a query
    (an empty value or attribute, a repeated attribute) raises
    :class:`ProtocolError`, which the service answers with 400.
    """
    keywords = params.get("kw", ())
    attributes = list(params.get("a", ()))
    values = list(params.get("v", ()))
    if keywords:
        if attributes or values or len(keywords) != 1:
            raise ProtocolError("kw cannot be combined with a/v pairs")
    elif not attributes or len(attributes) != len(values):
        raise ProtocolError(
            f"query needs matching a/v pairs, got {len(attributes)} "
            f"attribute(s) and {len(values)} value(s)"
        )
    try:
        if keywords:
            return Query.keyword(keywords[0])
        if len(attributes) == 1:
            return Query(value=values[0], attribute=attributes[0])
        return ConjunctiveQuery.of(
            *(AttributeValue(a, v) for a, v in zip(attributes, values))
        )
    except QueryError as error:
        raise ProtocolError(f"malformed query: {error}") from error


# ----------------------------------------------------------------------
# Result pages <-> JSON
# ----------------------------------------------------------------------
def page_to_json(page: ResultPage) -> dict:
    """The JSON rendering of one result page (schema ``repro-page/1``)."""
    return {
        "schema": JSON_SCHEMA,
        "query": encode_query(page.query),
        "page": page.page_number,
        "pages": page.num_pages,
        "total": page.total_matches,
        "accessible": page.accessible_matches,
        "pageSize": page.page_size,
        "records": [encode_record(record) for record in page.records],
    }


def render_page_json(page: ResultPage) -> str:
    """Serialize a result page to a deterministic JSON document.

    Key order is insertion order, NOT sorted: a record's field order is
    part of the in-process contract (extraction sees values in field
    order, and selector tie-breaks follow first-seen order), so the
    wire must preserve it for the two lanes to stay identical.
    """
    return json.dumps(page_to_json(page), separators=(",", ":"))


def _record_from_json(payload: dict, known: Dict[int, Record]) -> Record:
    """Decode one wire record, reusing ``known[id]`` for an exact repeat.

    The cached record is reused only when the wire fields equal its
    normalized fields, attribute order included; decoding such a payload
    would rebuild an equal record (normalization is a fixed point).
    Anything else is decoded afresh and replaces the entry.
    """
    record_id = int(payload["id"])
    fields = payload["f"]
    held = known.get(record_id)
    if (
        held is not None
        and [*fields] == [*held.fields]
        and [*map(tuple, fields.values())] == [*held.fields.values()]
    ):
        return held
    record = known[record_id] = decode_record(payload)
    return record


def page_from_json(
    payload: dict, known: Optional[Dict[int, Record]] = None
) -> ResultPage:
    """Decode a ``repro-page/1`` object.

    ``known`` maps record id → the record last decoded under that id,
    and is updated in place; a record the wire repeats exactly is
    returned as that same object.  Without it, a fresh map is used.
    """
    if payload.get("schema") != JSON_SCHEMA:
        raise ProtocolError(
            f"unexpected page schema {payload.get('schema')!r}"
        )
    if known is None:
        known = {}
    try:
        return ResultPage(
            query=decode_query(payload["query"]),
            page_number=int(payload["page"]),
            records=tuple(
                _record_from_json(record, known) for record in payload["records"]
            ),
            total_matches=(
                int(payload["total"]) if payload.get("total") is not None else None
            ),
            accessible_matches=int(payload["accessible"]),
            num_pages=int(payload["pages"]),
            page_size=int(payload.get("pageSize", 0)),
        )
    except (
        SerializationError, AttributeError, KeyError, OverflowError, TypeError, ValueError
    ) as error:
        raise ProtocolError(f"not a {JSON_SCHEMA} page: {error!r}") from error


def parse_page_json(
    document: str, known: Optional[Dict[int, Record]] = None
) -> ResultPage:
    """Parse a JSON document produced by :func:`render_page_json`.

    ``known`` is :func:`page_from_json`'s record-id memo.
    """
    try:
        payload = json.loads(document)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"not a JSON page: {error}") from error
    if not isinstance(payload, dict):
        raise ProtocolError("not a JSON page: top level must be an object")
    return page_from_json(payload, known)


# ----------------------------------------------------------------------
# Source descriptors
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SourceDescriptor:
    """Everything a remote crawler must know to target one source.

    The descriptor mirrors the constructor surface the crawler engine
    reads off :class:`~repro.server.webdb.SimulatedWebDatabase`: the
    query interface (so queries can be validated before they are sent)
    and the page size (so abortion policies can convert remaining
    records into remaining rounds).  Ground truth is deliberately
    absent — it travels on the separate ``truth/*`` routes.
    """

    name: str
    page_size: int
    report_total: bool
    queriable_attributes: Tuple[str, ...]
    supports_keyword: bool
    min_predicates: int
    max_predicates: Optional[int]
    interface_name: str

    @classmethod
    def for_source(cls, name: str, source) -> "SourceDescriptor":
        interface = source.interface
        return cls(
            name=name,
            page_size=source.page_size,
            report_total=source.report_total,
            queriable_attributes=tuple(sorted(interface.queriable_attributes)),
            supports_keyword=interface.supports_keyword,
            min_predicates=interface.min_predicates,
            max_predicates=interface.max_predicates,
            interface_name=interface.name,
        )

    def build_interface(self) -> QueryInterface:
        """Reconstruct the interface exactly as the server enforces it."""
        return QueryInterface(
            queriable_attributes=frozenset(self.queriable_attributes),
            supports_keyword=self.supports_keyword,
            name=self.interface_name,
            min_predicates=self.min_predicates,
            max_predicates=self.max_predicates,
        )

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "pageSize": self.page_size,
            "reportTotal": self.report_total,
            "interface": {
                "queriable": list(self.queriable_attributes),
                "keyword": self.supports_keyword,
                "minPredicates": self.min_predicates,
                "maxPredicates": self.max_predicates,
                "name": self.interface_name,
            },
        }

    @classmethod
    def from_json(cls, payload: dict) -> "SourceDescriptor":
        try:
            interface = payload["interface"]
            return cls(
                name=payload["name"],
                page_size=int(payload["pageSize"]),
                report_total=bool(payload["reportTotal"]),
                queriable_attributes=tuple(interface["queriable"]),
                supports_keyword=bool(interface["keyword"]),
                min_predicates=int(interface["minPredicates"]),
                max_predicates=(
                    int(interface["maxPredicates"])
                    if interface["maxPredicates"] is not None
                    else None
                ),
                interface_name=interface.get("name", "interface"),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ProtocolError(
                f"not a source descriptor: {payload!r}"
            ) from error


# ----------------------------------------------------------------------
# Error envelopes
# ----------------------------------------------------------------------
#: Machine-readable error codes the service emits.
ERROR_CODES = (
    "bad-request",
    "not-found",
    "unsupported-query",
    "page-out-of-range",
    "rate-limited",
    "method-not-allowed",
    "internal",
)


def error_json(code: str, message: str, **extra) -> str:
    """One JSON error body: ``{"error": code, "message": ..., ...}``."""
    body: Dict[str, object] = {"error": code, "message": message}
    body.update(extra)
    return json.dumps(body, sort_keys=True)


def parse_error(document: bytes) -> Tuple[str, str]:
    """Best-effort extraction of (code, message) from an error body."""
    try:
        payload = json.loads(document.decode("utf-8"))
        return str(payload.get("error", "internal")), str(
            payload.get("message", "")
        )
    except (json.JSONDecodeError, UnicodeDecodeError, AttributeError):
        return "internal", document.decode("utf-8", "replace")[:200]
