"""Unit tests for the XML web-service wire format."""

import pytest

from repro.core import Query, Record, Schema
from repro.server import paginate, parse_page, render_page

schema = Schema.of("title", author={"multivalued": True})


def sample_page(report_total=True):
    matches = [
        Record.build(3, schema, title="alpha", author=["x", "y"]),
        Record.build(7, schema, title="beta"),
    ]
    return paginate(
        Query.equality("author", "x"), matches, 1, 10, report_total=report_total
    )


class TestRender:
    def test_contains_items_and_metadata(self):
        document = render_page(sample_page())
        assert "<QueryResponse" in document
        assert 'totalResults="2"' in document
        assert document.count("<Item") == 2
        assert "<author>x</author>" in document
        assert "<author>y</author>" in document

    def test_request_echoed(self):
        document = render_page(sample_page())
        assert 'attribute="author"' in document
        assert 'value="x"' in document

    def test_keyword_query_omits_attribute(self):
        page = paginate(Query.keyword("x"), [], 1, 10)
        document = render_page(page)
        assert "attribute=" not in document

    def test_total_omitted_when_unreported(self):
        document = render_page(sample_page(report_total=False))
        assert "totalResults" not in document


class TestParse:
    def test_roundtrip(self):
        page = sample_page()
        parsed = parse_page(render_page(page))
        assert parsed == page

    def test_roundtrip_without_total(self):
        page = sample_page(report_total=False)
        parsed = parse_page(render_page(page))
        assert parsed.total_matches is None
        assert parsed == page

    def test_roundtrip_keyword(self):
        matches = [Record.build(1, schema, title="orbit")]
        page = paginate(Query.keyword("orbit"), matches, 1, 5)
        assert parse_page(render_page(page)) == page

    def test_multivalued_fields_preserved(self):
        parsed = parse_page(render_page(sample_page()))
        [first, _second] = parsed.records
        assert first.values_of("author") == ("x", "y")

    def test_malformed_document_rejected(self):
        with pytest.raises(ValueError):
            parse_page("<QueryResponse></QueryResponse>")

    def test_garbage_rejected(self):
        with pytest.raises(Exception):
            parse_page("this is not xml")


# ----------------------------------------------------------------------
# Round-trip safety: any value the normalizer admits must survive the
# XML envelope, including characters XML cannot carry verbatim and
# attribute names that are not valid XML tag names.
# ----------------------------------------------------------------------
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server import SimulatedWebDatabase


# XML 1.0 cannot carry most C0 control characters at all; the envelope
# substitutes U+FFFD for them (tested separately below).  The lossless
# property therefore ranges over everything else.
adversarial_text = st.text(
    alphabet=st.characters(
        codec="utf-8", exclude_categories=("Cs", "Cc")
    ),
    min_size=1,
    max_size=24,
).filter(lambda s: s.strip())

# Attribute names survive Record's strip/lower but may hold spaces,
# punctuation, or digits in front — all invalid as XML tag names.
adversarial_attr = st.text(
    alphabet="abz0 9.<&-'\"",
    min_size=1,
    max_size=8,
).filter(lambda s: s.strip() and s.strip().lower())


class TestRoundTripProperties:
    @given(
        attrs=st.lists(
            adversarial_attr,
            min_size=1,
            max_size=3,
            unique_by=lambda a: a.strip().lower(),
        ),
        rows=st.integers(min_value=1, max_value=4),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_normalized_record_survives_the_envelope(
        self, attrs, rows, data
    ):
        record_schema = Schema.of(
            **{attr: {"multivalued": True} for attr in attrs}
        )
        records = []
        for record_id in range(rows):
            fields = {
                attr: data.draw(
                    st.lists(adversarial_text, min_size=1, max_size=2)
                )
                for attr in attrs
            }
            records.append(Record.build(record_id, record_schema, **fields))
        query = Query.equality(next(iter(records[0].fields)), "x")
        page = paginate(query, records, 1, 10)
        parsed = parse_page(render_page(page))
        assert parsed.records == page.records

    def test_xml_invalid_control_chars_become_replacement_char(self):
        """C0 controls (normalize() keeps them) can't travel in XML 1.0;
        the envelope substitutes U+FFFD rather than emit unparseable
        bytes."""
        record = Record(1, {"title": ("alpha\x1bbeta",)})
        page = paginate(Query.equality("title", "x"), [record], 1, 10)
        parsed = parse_page(render_page(page))
        assert parsed.records[0].values_of("title") == ("alpha\ufffdbeta",)

    def test_invalid_tag_name_attributes_round_trip(self):
        """Attribute names like "model year" are not valid XML tag
        names; they travel as <Field name="..."> and parse back."""
        record = Record(1, {"model year": ("1999",), "9to5": ("yes",)})
        page = paginate(Query.equality("model year", "1999"), [record], 1, 10)
        document = render_page(page)
        assert "<Field" in document
        parsed = parse_page(document)
        assert parsed.records == page.records

    @given(value=adversarial_text)
    @settings(max_examples=60, deadline=None)
    def test_query_values_echo_back(self, value):
        page = paginate(Query.equality("title", value), [], 1, 10)
        parsed = parse_page(render_page(page))
        assert parsed.query.value == Query.equality("title", value).value


class TestRoundTripOverPaperDatasets:
    """The satellite check: the paper's movie/name-shaped data round-trips.

    Every page a full scan of the DVD store and scholarly sources can
    produce must parse back byte-identical — these tables carry the
    movie titles, person names, and punctuation-heavy values the paper's
    Amazon experiment crawled.
    """

    def scan_all_pages(self, table, sample=40):
        source = SimulatedWebDatabase(table, page_size=7)
        queriable = set(table.schema.queriable)
        values = [
            v for v in table.distinct_values() if v.attribute in queriable
        ]
        import random

        random.Random(5).shuffle(values)
        for value in values[:sample]:
            page_number = 1
            while True:
                page = source.submit(
                    Query.equality(value.attribute, value.value),
                    page_number,
                )
                parsed = parse_page(render_page(page))
                assert parsed == page
                if not page.has_next:
                    break
                page_number += 1

    def test_movie_dataset_round_trips(self, dvd_store):
        self.scan_all_pages(dvd_store)

    def test_name_heavy_dataset_round_trips(self, small_ebay):
        self.scan_all_pages(small_ebay)
