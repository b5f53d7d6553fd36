"""Unit tests for the wire protocol: query encoding, JSON pages, descriptors."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from urllib.parse import parse_qs, urlsplit

from repro.core import ConjunctiveQuery, Query, Record, Schema
from repro.core.errors import ReproError
from repro.core.values import AttributeValue
from repro.net.protocol import (
    JSON_SCHEMA,
    ProtocolError,
    SourceDescriptor,
    decode_query_params,
    encode_query_params,
    error_json,
    page_from_json,
    page_to_json,
    parse_error,
    parse_page_json,
    query_url,
    render_page_json,
)
from repro.server import SimulatedWebDatabase, paginate
from repro.server.pagination import ResultPage

schema = Schema.of("title", author={"multivalued": True})


def roundtrip_query(query):
    params = encode_query_params(query)
    # Through a real URL, like the server sees it.
    url = query_url("http://h/sources/s/query", query)
    parsed = parse_qs(urlsplit(url).query, keep_blank_values=True)
    parsed.pop("page"), parsed.pop("format")
    assert decode_query_params(parsed) == query
    # And straight from the pair list.
    direct = {}
    for name, value in params:
        direct.setdefault(name, []).append(value)
    return decode_query_params(direct)


class TestQueryParams:
    def test_equality_roundtrip(self):
        query = Query.equality("author", "knuth")
        assert roundtrip_query(query) == query

    def test_keyword_roundtrip(self):
        query = Query.keyword("deep web")
        assert roundtrip_query(query) == query

    def test_conjunctive_roundtrip(self):
        query = ConjunctiveQuery.of(
            AttributeValue("author", "knuth"),
            AttributeValue("title", "art of programming"),
        )
        assert roundtrip_query(query) == query

    def test_url_characters_survive(self):
        query = Query.equality("title", "a&b =? #100% +x/y")
        assert roundtrip_query(query) == query

    def test_kw_with_pairs_rejected(self):
        with pytest.raises(ProtocolError):
            decode_query_params({"kw": ["x"], "a": ["t"], "v": ["y"]})

    def test_mismatched_pairs_rejected(self):
        with pytest.raises(ProtocolError):
            decode_query_params({"a": ["t", "u"], "v": ["y"]})

    def test_empty_rejected(self):
        with pytest.raises(ProtocolError):
            decode_query_params({})


def sample_page(report_total=True):
    matches = [
        Record.build(3, schema, title="alpha", author=["x", "y"]),
        Record.build(7, schema, title="beta"),
    ]
    return paginate(
        Query.equality("author", "x"), matches, 1, 10, report_total=report_total
    )


class TestJsonPages:
    def test_roundtrip(self):
        page = sample_page()
        assert parse_page_json(render_page_json(page)) == page

    def test_roundtrip_without_total(self):
        page = sample_page(report_total=False)
        parsed = parse_page_json(render_page_json(page))
        assert parsed == page
        assert parsed.total_matches is None

    def test_deterministic_bytes(self):
        assert render_page_json(sample_page()) == render_page_json(sample_page())

    def test_field_order_survives_the_wire(self):
        # Field order is part of the lane-identity contract: extraction
        # sees values in field order, and GL tie-breaks on first-seen
        # order, so the serializer must NOT alphabetize record fields
        # (``sort_keys=True`` once did, and ebay crawls diverged).
        page = sample_page()
        parsed = parse_page_json(render_page_json(page))
        for original, roundtripped in zip(page.records, parsed.records):
            assert list(original.fields) == list(roundtripped.fields)
        records_section = render_page_json(page).split('"records"', 1)[1]
        assert records_section.index('"title"') < records_section.index(
            '"author"'
        )

    def test_schema_tag_enforced(self):
        payload = page_to_json(sample_page())
        payload["schema"] = "other/9"
        with pytest.raises(ProtocolError):
            page_from_json(payload)

    def test_garbage_rejected(self):
        with pytest.raises(ProtocolError):
            parse_page_json("not json at all")
        with pytest.raises(ProtocolError):
            parse_page_json("[1,2,3]")

    @pytest.mark.parametrize(
        "payload",
        [
            {"schema": JSON_SCHEMA},
            {"schema": JSON_SCHEMA, "query": "knuth"},
            {"schema": JSON_SCHEMA, "query": {"a": "author", "v": "x"}},
        ],
    )
    def test_incomplete_page_is_a_protocol_error(self, payload):
        with pytest.raises(ProtocolError):
            parse_page_json(json.dumps(payload))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)

#: JSON objects shaped like a page, so decoding gets past the schema tag
#: and the key lookups into the query, record and integer fields.
page_like = st.fixed_dictionaries(
    {"schema": st.just(JSON_SCHEMA)},
    optional={
        "query": json_values
        | st.fixed_dictionaries({"v": json_values}, optional={"a": json_values})
        | st.fixed_dictionaries({"cq": st.lists(json_values, max_size=3)}),
        "page": json_values,
        "pages": json_values,
        "total": json_values,
        "accessible": json_values,
        "pageSize": json_values,
        "records": json_values
        | st.lists(
            st.fixed_dictionaries(
                {"id": json_values, "f": json_values}
            ),
            max_size=3,
        ),
    },
)


@settings(max_examples=300, deadline=None)
@given(st.text() | json_values.map(json.dumps) | page_like.map(json.dumps))
def test_property_any_text_parses_or_raises_a_repro_error(document):
    try:
        page = parse_page_json(document)
    except ReproError:
        return
    assert isinstance(page, ResultPage)


field_values = st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=3)
records = st.lists(
    st.builds(
        Record,
        st.integers(min_value=0, max_value=2**53),
        st.dictionaries(st.text(min_size=1, max_size=6), field_values, max_size=3),
    ),
    max_size=6,
)
words = st.text(min_size=1, max_size=8).filter(str.strip)
queries = st.builds(Query.equality, words, words) | st.builds(
    ConjunctiveQuery.of,
    st.builds(AttributeValue, st.just("title"), words),
    st.builds(AttributeValue, st.just("author"), words),
)


@settings(max_examples=200, deadline=None)
@given(
    queries,
    records,
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.booleans(),
)
def test_property_render_then_parse_round_trips(
    query, matches, page_number, page_size, report_total
):
    last_page = max(1, -(-len(matches) // page_size))
    page = paginate(
        query,
        matches,
        min(page_number, last_page),
        page_size,
        report_total=report_total,
    )
    assert parse_page_json(render_page_json(page)) == page


class TestDescriptor:
    def test_roundtrip_via_json(self, books):
        source = SimulatedWebDatabase(books, page_size=2)
        descriptor = SourceDescriptor.for_source("books", source)
        assert SourceDescriptor.from_json(descriptor.to_json()) == descriptor

    def test_rebuilt_interface_validates_like_the_server(self, books):
        source = SimulatedWebDatabase(books, page_size=2)
        rebuilt = SourceDescriptor.for_source("books", source).build_interface()
        good = Query.equality("author", "knuth")
        bad = Query.equality("price", "10")  # not queriable
        source.interface.validate(good)
        rebuilt.validate(good)
        for interface in (source.interface, rebuilt):
            with pytest.raises(Exception):
                interface.validate(bad)

    def test_bad_payload_rejected(self):
        with pytest.raises(ProtocolError):
            SourceDescriptor.from_json({"name": "x"})


class TestErrors:
    def test_roundtrip(self):
        body = error_json("rate-limited", "slow down", retryAfter=1.5)
        code, message = parse_error(body.encode("utf-8"))
        assert code == "rate-limited"
        assert message == "slow down"

    def test_non_json_degrades(self):
        code, message = parse_error(b"<html>oops</html>")
        assert code == "internal"
        assert "oops" in message
