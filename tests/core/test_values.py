"""Unit and property tests for attribute-value normalization."""

import re
import sys

from hypothesis import given
from hypothesis import strategies as st

from repro.core.values import AttributeValue, distinct_values, normalize

_WHITESPACE = re.compile(r"\s+")


def reference_normalize(raw):
    """The regex form of :func:`normalize`, kept as its reference."""
    return _WHITESPACE.sub(" ", raw.strip().lower())


#: Every code point, and the ones ``str.isspace()`` accepts.
EVERY_CODE_POINT = "".join(map(chr, range(sys.maxunicode + 1)))
SPACES = "".join(c for c in EVERY_CODE_POINT if c.isspace())

#: Text rich in whitespace of every kind and in letters that change case.
spaced_text = st.text(
    alphabet=st.sampled_from(SPACES) | st.characters() | st.sampled_from("AbΣİ"),
    max_size=50,
)


class TestNormalize:
    def test_lowercases(self):
        assert normalize("Hanks, Tom") == "hanks, tom"

    def test_strips_outer_whitespace(self):
        assert normalize("  ibm  ") == "ibm"

    def test_collapses_inner_whitespace(self):
        assert normalize("new   york \t city") == "new york city"

    def test_empty_stays_empty(self):
        assert normalize("") == ""
        assert normalize("   ") == ""

    def test_idempotent_examples(self):
        for raw in ("a b", "A  B", " mixed Case  words "):
            once = normalize(raw)
            assert normalize(once) == once

    @given(spaced_text)
    def test_idempotent_property(self, raw):
        once = normalize(raw)
        assert normalize(once) == once

    @given(st.text(max_size=50))
    def test_no_leading_trailing_space(self, raw):
        result = normalize(raw)
        assert result == result.strip()

    def test_fixed_point_on_every_code_point(self):
        # What lets a decoder trust a normalized value without redoing
        # it: values by normalize(), attribute names by strip().lower().
        for char in EVERY_CODE_POINT:
            once = normalize(char)
            assert normalize(once) == once
            name = char.strip().lower()
            assert name.strip().lower() == name

    def test_regex_whitespace_is_the_isspace_set(self):
        assert re.findall(r"\s", EVERY_CODE_POINT) == list(SPACES)

    def test_every_space_code_point_collapses(self):
        for space in SPACES:
            raw = f"{space}A{space}{space}b{space}"
            assert normalize(raw) == reference_normalize(raw) == "a b"

    @given(spaced_text)
    def test_matches_the_regex_reference(self, raw):
        assert normalize(raw) == reference_normalize(raw)


class TestAttributeValue:
    def test_normalizes_both_fields(self):
        pair = AttributeValue(" Actor ", " Hanks,  TOM ")
        assert pair.attribute == "actor"
        assert pair.value == "hanks, tom"

    def test_equality_after_normalization(self):
        assert AttributeValue("actor", "Hanks, Tom") == AttributeValue(
            "ACTOR", "hanks,  tom"
        )

    def test_hashable_and_deduplicates(self):
        values = {
            AttributeValue("brand", "IBM"),
            AttributeValue("brand", "ibm "),
            AttributeValue("brand", "dell"),
        }
        assert len(values) == 2

    def test_orderable(self):
        a = AttributeValue("author", "adams")
        b = AttributeValue("author", "brown")
        c = AttributeValue("brand", "adams")
        assert sorted([c, b, a]) == [a, b, c]

    def test_different_attribute_different_vertex(self):
        # The same string under two attributes is two AVG vertices.
        assert AttributeValue("actor", "x") != AttributeValue("director", "x")

    def test_str_contains_both_parts(self):
        text = str(AttributeValue("brand", "ibm"))
        assert "brand" in text and "ibm" in text


def test_distinct_values_helper():
    pairs = [
        AttributeValue("a", "x"),
        AttributeValue("a", "X "),
        AttributeValue("b", "x"),
    ]
    assert len(distinct_values(pairs)) == 2
