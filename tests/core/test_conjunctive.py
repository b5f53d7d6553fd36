"""Unit tests for conjunctive (multi-attribute) queries."""

import pytest

from repro.core import (
    AttributeValue,
    ConjunctiveQuery,
    Query,
    QueryError,
    RelationalTable,
    Schema,
)


def AV(attribute, value):
    return AttributeValue(attribute, value)


class TestConstruction:
    def test_predicates_sorted_canonical(self):
        a = ConjunctiveQuery.of(AV("model", "corolla"), AV("make", "toyota"))
        b = ConjunctiveQuery.of(AV("make", "toyota"), AV("model", "corolla"))
        assert a == b
        assert hash(a) == hash(b)

    def test_equalities_helper(self):
        query = ConjunctiveQuery.equalities(make="Toyota", model="Corolla")
        assert query.arity == 2
        assert query.attributes == ("make", "model")

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery.of(AV("make", "a"), AV("make", "b"))

    def test_duplicate_predicate_collapses(self):
        query = ConjunctiveQuery.of(AV("make", "a"), AV("make", "a"))
        assert query.arity == 1

    def test_empty_rejected(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery.of()

    @pytest.mark.parametrize(
        "pairs",
        [
            [AV("make", ""), AV("model", "corolla")],
            [AV("make", " \t "), AV("model", "corolla")],
            [AV("", "toyota"), AV("model", "corolla")],
            [AV("  ", "toyota")],
        ],
    )
    def test_empty_predicate_rejected(self, pairs):
        """As for :class:`Query`: no empty attribute or value."""
        with pytest.raises(QueryError):
            ConjunctiveQuery.of(*pairs)

    def test_not_keyword(self):
        assert not ConjunctiveQuery.equalities(a="x").is_keyword

    def test_differs_from_single_query(self):
        assert ConjunctiveQuery.equalities(a="x") != Query.equality("a", "x")


class TestSql:
    def test_and_chain(self):
        sql = ConjunctiveQuery.equalities(make="toyota", model="corolla").sql()
        assert "make = 'toyota'" in sql
        assert " AND " in sql
        assert "model = 'corolla'" in sql


class TestTableMatching:
    schema = Schema.of("make", "model", "year")

    def table(self):
        table = RelationalTable(self.schema)
        table.insert_rows(
            [
                {"make": "toyota", "model": "corolla", "year": "2001"},
                {"make": "toyota", "model": "corolla", "year": "2002"},
                {"make": "toyota", "model": "camry", "year": "2001"},
                {"make": "honda", "model": "civic", "year": "2001"},
            ]
        )
        return table

    def test_conjunction_intersects(self):
        table = self.table()
        query = ConjunctiveQuery.equalities(make="toyota", model="corolla")
        assert table.match(query) == [0, 1]
        assert table.count(query) == 2

    def test_unsatisfiable_conjunction_empty(self):
        table = self.table()
        query = ConjunctiveQuery.equalities(make="honda", model="corolla")
        assert table.match(query) == []

    def test_unknown_value_empty(self):
        table = self.table()
        query = ConjunctiveQuery.equalities(make="ford", model="corolla")
        assert table.match(query) == []

    def test_single_predicate_matches_equality(self):
        table = self.table()
        conjunctive = ConjunctiveQuery.equalities(make="toyota")
        assert table.match(conjunctive) == table.match_equality("make", "toyota")

    def test_triple_conjunction(self):
        table = self.table()
        query = ConjunctiveQuery.equalities(
            make="toyota", model="corolla", year="2002"
        )
        assert table.match(query) == [1]
