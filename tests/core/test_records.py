"""Unit and property tests for records and their AVG cliques."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import AttributeValue, Record, Schema, SchemaError
from tests.core.test_values import reference_normalize, spaced_text

schema = Schema.of("title", "publisher", author={"multivalued": True})


def reference_fields(fields):
    """``fields`` as the regex-normalizing constructor cleaned them."""
    cleaned = {}
    for attribute, values in fields.items():
        normalized = tuple(
            dict.fromkeys(v for v in map(reference_normalize, values) if v)
        )
        if normalized:
            cleaned[attribute.strip().lower()] = normalized
    return cleaned


#: Raw field maps whose attribute names may collide once normalized.
raw_fields = st.dictionaries(
    st.sampled_from(["title", "Title ", " TITLE", "author", "Author", "x y"])
    | spaced_text,
    st.lists(spaced_text | st.sampled_from(["a", "A ", " a", "b"]), max_size=4),
    max_size=5,
)


class TestBuild:
    def test_single_values_wrapped(self):
        record = Record.build(1, schema, title="A Book")
        assert record.values_of("title") == ("a book",)

    def test_multivalued_accepts_sequence(self):
        record = Record.build(1, schema, author=["X", "Y"])
        assert record.values_of("author") == ("x", "y")

    def test_single_valued_rejects_multiple(self):
        with pytest.raises(SchemaError):
            Record.build(1, schema, title=["a", "b"])

    def test_unknown_attribute_rejected(self):
        with pytest.raises(SchemaError):
            Record.build(1, schema, isbn="123")

    def test_empty_values_dropped(self):
        record = Record.build(1, schema, title="  ", author=["x", ""])
        assert record.values_of("title") == ()
        assert record.values_of("author") == ("x",)

    def test_duplicate_values_dropped_order_preserved(self):
        record = Record.build(1, schema, author=["B", "a", "b ", "A"])
        assert record.values_of("author") == ("b", "a")


class TestAccessors:
    def test_missing_attribute_returns_empty(self):
        record = Record.build(1, schema, title="x")
        assert record.values_of("publisher") == ()

    def test_attribute_values_is_the_clique(self):
        record = Record.build(1, schema, title="t", author=["a", "b"])
        assert set(record.attribute_values()) == {
            AttributeValue("title", "t"),
            AttributeValue("author", "a"),
            AttributeValue("author", "b"),
        }

    def test_len_counts_values(self):
        record = Record.build(1, schema, title="t", author=["a", "b"])
        assert len(record) == 3

    def test_iter_yields_attribute_values(self):
        record = Record.build(1, schema, title="t")
        assert list(record) == [AttributeValue("title", "t")]


class TestMatching:
    def test_matches_normalized(self):
        record = Record.build(1, schema, title="The Deep  Web")
        assert record.matches("title", "the deep web")
        assert record.matches("TITLE", "The Deep Web ")

    def test_matches_any_of_multivalue(self):
        record = Record.build(1, schema, author=["Knuth", "Liskov"])
        assert record.matches("author", "knuth")
        assert record.matches("author", "liskov")
        assert not record.matches("author", "dijkstra")

    def test_matches_keyword_across_attributes(self):
        record = Record.build(1, schema, title="orbit", author=["x"])
        assert record.matches_keyword("Orbit")
        assert record.matches_keyword("x")
        assert not record.matches_keyword("y")


@given(
    st.lists(
        st.text(
            alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
            min_size=1,
            max_size=8,
        ),
        min_size=1,
        max_size=6,
    )
)
def test_property_every_stored_value_matches(authors):
    record = Record.build(1, schema, author=authors)
    for value in record.values_of("author"):
        assert record.matches("author", value)
        assert record.matches_keyword(value)


@given(
    st.lists(
        st.text(
            alphabet=st.characters(whitelist_categories=("Ll",)),
            min_size=1,
            max_size=8,
        ),
        min_size=1,
        max_size=6,
    )
)
def test_property_clique_size_equals_distinct_values(authors):
    record = Record.build(1, schema, author=authors)
    clique = record.attribute_values()
    assert len(clique) == len(set(clique))
    assert len(clique) == len(record.values_of("author"))


class TestAgainstTheReferenceConstructor:
    @given(raw_fields)
    def test_fields_match_the_reference_in_order(self, fields):
        record = Record(1, fields)
        expected = reference_fields(fields)
        assert list(record.fields.items()) == list(expected.items())

    @given(raw_fields)
    def test_pairs_equal_public_attribute_values(self, fields):
        record = Record(1, fields)
        public = tuple(
            AttributeValue(attribute, value)
            for attribute, values in record.fields.items()
            for value in values
        )
        assert record.attribute_values() == public
        assert [hash(pair) for pair in record.attribute_values()] == [
            hash(pair) for pair in public
        ]

    @given(raw_fields)
    def test_pairs_hold_the_strings_stored_in_fields(self, fields):
        record = Record(1, fields)
        stored = [
            (attribute, value)
            for attribute, values in record.fields.items()
            for value in values
        ]
        assert len(stored) == len(record.attribute_values())
        for pair, (attribute, value) in zip(record.attribute_values(), stored):
            assert pair.attribute is attribute
            assert pair.value is value

    def test_colliding_attribute_names_keep_one_clique(self):
        record = Record(1, {"Title": ["a"], "author": ["x"], "title": ["b"]})
        assert list(record.fields.items()) == [
            ("title", ("b",)),
            ("author", ("x",)),
        ]
        assert record.attribute_values() == (
            AttributeValue("title", "b"),
            AttributeValue("author", "x"),
        )
