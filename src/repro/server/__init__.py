"""Simulated structured web sources: interfaces, pagination, limits."""

from repro.server.flaky import (
    FlakyServer,
    PermanentServerFailure,
    TransientServerError,
    submit_with_retries,
)
from repro.server.html import (
    HtmlExtractionError,
    attribute_label,
    label_attribute,
    parse_html_page,
    render_html_page,
)
from repro.server.interface import QueryInterface
from repro.server.limits import (
    ORDERINGS,
    RateLimitDecision,
    RateLimiter,
    ResultLimitPolicy,
)
from repro.server.network import CommunicationLog
from repro.server.pagination import ResultPage, page_count, paginate
from repro.server.service import parse_page, render_page
from repro.server.webdb import SimulatedWebDatabase

__all__ = [
    "CommunicationLog",
    "FlakyServer",
    "HtmlExtractionError",
    "ORDERINGS",
    "PermanentServerFailure",
    "QueryInterface",
    "RateLimitDecision",
    "RateLimiter",
    "ResultLimitPolicy",
    "ResultPage",
    "SimulatedWebDatabase",
    "TransientServerError",
    "attribute_label",
    "label_attribute",
    "page_count",
    "paginate",
    "parse_html_page",
    "parse_page",
    "render_html_page",
    "render_page",
    "submit_with_retries",
]
