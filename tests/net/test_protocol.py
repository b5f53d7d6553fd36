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
from repro.runtime.serialize import encode_record
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

    @pytest.mark.parametrize(
        "params",
        [
            {"kw": [""]},
            {"kw": [" \t"]},
            {"a": ["title"], "v": [""]},
            {"a": [""], "v": ["x"]},
            {"a": ["brand", "brand"], "v": ["x", "y"]},
            {"a": ["actor", "company"], "v": ["", "x"]},
            {"a": ["actor", "company"], "v": ["  ", "x"]},
            {"a": ["", "company"], "v": ["x", "y"]},
        ],
    )
    def test_malformed_query_is_a_protocol_error(self, params):
        with pytest.raises(ProtocolError):
            decode_query_params(params)


#: Names the decoder reads, plus one it ignores.
param_names = st.sampled_from(["kw", "a", "v", "page"])
param_values = st.text(max_size=6) | st.sampled_from(["", " ", "Title", "title"])


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(param_names, st.lists(param_values, min_size=1, max_size=3)))
def test_property_params_decode_to_a_query_or_raise_a_protocol_error(params):
    try:
        query = decode_query_params(params)
    except ProtocolError:
        return
    assert isinstance(query, (Query, ConjunctiveQuery))
    if isinstance(query, ConjunctiveQuery):
        predicates = [(pair.attribute, pair.value) for pair in query.predicates]
    else:
        predicates = [(query.attribute, query.value)]
    for attribute, value in predicates:
        assert attribute is None or attribute
        assert value


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


# ----------------------------------------------------------------------
# The record-id memo against decoding each page alone
# ----------------------------------------------------------------------
memo_attributes = st.sampled_from(["title", "brand", "price", "Title", " brand"])
memo_values = st.sampled_from(["a", "b", "a b", "A", " a ", "a  b", "", "c"])
memo_fields = st.dictionaries(
    memo_attributes, st.lists(memo_values, min_size=1, max_size=3), max_size=4
)


def served_fields(fields):
    """The wire fields a server sends for the record ``fields`` make."""
    return encode_record(Record(0, fields))["f"]


@st.composite
def repeat_of(draw, sent):
    """Fields for a record id already on the wire with fields ``sent``."""
    normal = served_fields(sent)
    attributes = list(normal)
    kind = draw(
        st.sampled_from(
            ["same", "raw", "reordered", "alike", "added", "dropped",
             "spelling", "changed", "fresh"]
        )
    )
    if kind == "same" or (not attributes and kind != "fresh"):
        return normal
    if kind == "raw":
        return sent
    if kind == "reordered":
        return dict(reversed(list(normal.items())))
    if kind == "alike":
        # Equal values under every attribute: a later reordering then
        # differs from this record in attribute order alone.
        return {attribute: normal[attributes[0]] for attribute in attributes}
    if kind == "added":
        return {**normal, draw(memo_attributes): [draw(memo_values)]}
    if kind == "fresh":
        return draw(memo_fields)
    attribute = draw(st.sampled_from(attributes))
    if kind == "dropped":
        return {a: v for a, v in normal.items() if a != attribute}
    values = list(normal[attribute])
    index = draw(st.integers(0, len(values) - 1))
    values[index] = (
        f" {values[index].upper()}  " if kind == "spelling" else draw(memo_values)
    )
    return {**normal, attribute: values}


@st.composite
def page_sequences(draw):
    """Wire pages whose record ids repeat, with or without the same fields."""
    sent = {}
    documents = []
    for _ in range(draw(st.integers(1, 5))):
        records = []
        for _ in range(draw(st.integers(0, 4))):
            record_id = draw(st.integers(0, 3))
            fields = (
                draw(memo_fields)
                if record_id not in sent
                else draw(repeat_of(sent[record_id]))
            )
            sent[record_id] = fields
            records.append({"id": record_id, "f": fields})
        payload = page_to_json(sample_page())
        payload["records"] = records
        documents.append(json.dumps(payload))
    return documents


def same_records(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a == b
        assert list(a.fields.items()) == list(b.fields.items())
        assert a.attribute_values() == b.attribute_values()


@settings(max_examples=300, deadline=None)
@given(page_sequences())
def test_property_memo_decodes_like_each_page_alone(documents):
    known = {}
    for document in documents:
        through_memo = parse_page_json(document, known)
        alone = parse_page_json(document)
        same_records(through_memo.records, alone.records)
        last = {record.record_id: record for record in through_memo.records}
        for record_id, record in last.items():
            assert known[record_id] is record


class TestRecordMemo:
    def document(self, *records):
        payload = page_to_json(sample_page())
        payload["records"] = [{"id": i, "f": f} for i, f in records]
        return json.dumps(payload)

    def test_exact_repeat_is_the_same_object(self):
        known = {}
        fields = {"title": ["alpha"], "author": ["x", "y"]}
        (first,) = parse_page_json(self.document((3, fields)), known).records
        (again,) = parse_page_json(self.document((3, fields)), known).records
        assert again is first

    @pytest.mark.parametrize(
        "repeat",
        [
            {"author": ["x", "y"], "title": ["alpha"]},  # reordered
            {"title": ["alpha"], "author": ["y", "x"]},  # values reordered
            {"title": ["Alpha"], "author": ["x", "y"]},  # unnormalized
            {"title": ["alpha"]},  # dropped
            {"title": ["alpha"], "author": ["x", "y"], "isbn": ["1"]},  # added
            {"title": ["beta"], "author": ["x", "y"]},  # changed
        ],
    )
    def test_any_other_fields_decode_afresh_and_replace(self, repeat):
        known = {}
        first_fields = {"title": ["alpha"], "author": ["x", "y"]}
        (first,) = parse_page_json(self.document((3, first_fields)), known).records
        (second,) = parse_page_json(self.document((3, repeat)), known).records
        (alone,) = parse_page_json(self.document((3, repeat))).records
        assert second is not first
        same_records([second], [alone])
        assert known[3] is second

    def test_attribute_order_alone_decodes_afresh(self):
        known = {}
        first_fields = {"title": ["x"], "author": ["x"]}
        (first,) = parse_page_json(self.document((3, first_fields)), known).records
        reordered = {"author": ["x"], "title": ["x"]}
        (second,) = parse_page_json(self.document((3, reordered)), known).records
        assert second is not first
        assert list(second.fields) == ["author", "title"]
        assert [pair.attribute for pair in second] == ["author", "title"]


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
