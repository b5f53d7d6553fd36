"""Unit and property tests for attribute-value graph construction."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AttributeValue
from repro.graph import build_avg, build_avg_from_table, page_cost, record_clique
from tests.conftest import make_record


def AV(attribute, value):
    return AttributeValue(attribute, value)


class TestRecordClique:
    def test_pairs_of_three_values(self):
        record = make_record(1, a="x", b="y", c="z")
        edges = record_clique(record)
        assert len(edges) == 3

    def test_single_value_no_edges(self):
        assert record_clique(make_record(1, a="x")) == []


class TestBuildAvg:
    def test_paper_example(self):
        """Figure 1 of the paper: 5 records over attributes a, b, c."""
        records = [
            make_record(0, a="a1", b="b1", c="c1"),
            make_record(1, a="a2", b="b2", c="c1"),
            make_record(2, a="a2", b="b2", c="c2"),
            make_record(3, a="a2", b="b3", c="c2"),
            make_record(4, a="a3", b="b4", c="c2"),
        ]
        graph = build_avg(records)
        # Vertices: a1 a2 a3, b1..b4, c1 c2 = 9 distinct values.
        assert graph.number_of_nodes() == 9
        # Crawling example from the paper: a2 sees c1, b2, c2, b3.
        neighbors = set(graph.neighbors(AV("a", "a2")))
        assert neighbors == {AV("c", "c1"), AV("b", "b2"), AV("c", "c2"), AV("b", "b3")}

    def test_each_record_forms_a_clique(self):
        record = make_record(1, a="x", b="y", c="z", d="w")
        graph = build_avg([record])
        clique_nodes = list(graph.nodes)
        for i, u in enumerate(clique_nodes):
            for v in clique_nodes[i + 1:]:
                assert graph.has_edge(u, v)

    def test_shared_value_bridges_cliques(self):
        records = [make_record(1, a="x", b="y"), make_record(2, a="x", b="z")]
        graph = build_avg(records)
        assert nx.has_path(graph, AV("b", "y"), AV("b", "z"))

    def test_frequency_attribute(self):
        records = [make_record(1, a="x", b="y"), make_record(2, a="x", b="z")]
        graph = build_avg(records)
        assert graph.nodes[AV("a", "x")]["frequency"] == 2
        assert graph.nodes[AV("b", "y")]["frequency"] == 1

    def test_edge_records_count(self):
        records = [
            make_record(1, a="x", b="y"),
            make_record(2, a="x", b="y"),
            make_record(3, a="x", b="z"),
        ]
        graph = build_avg(records)
        assert graph.edges[AV("a", "x"), AV("b", "y")]["records"] == 2
        assert graph.edges[AV("a", "x"), AV("b", "z")]["records"] == 1

    def test_attribute_restriction(self):
        records = [make_record(1, a="x", b="y", c="z")]
        graph = build_avg(records, attributes=["a", "b"])
        assert AV("c", "z") not in graph
        assert graph.number_of_nodes() == 2

    def test_empty_input(self):
        graph = build_avg([])
        assert graph.number_of_nodes() == 0


class TestWeights:
    def test_weights_in_unit_interval(self):
        records = [make_record(i, a=f"v{i % 3}", b=f"w{i}") for i in range(30)]
        graph = build_avg(records, page_size=10)
        for _node, data in graph.nodes(data=True):
            assert 0.0 < data["weight"] <= 1.0

    def test_max_cost_node_has_weight_one(self):
        records = [make_record(i, a="hub", b=f"w{i}") for i in range(25)]
        graph = build_avg(records, page_size=10)
        assert graph.nodes[AV("a", "hub")]["weight"] == 1.0

    def test_page_cost_ceiling(self):
        records = [make_record(i, a="hub", b=f"w{i}") for i in range(25)]
        graph = build_avg(records, page_size=10)
        assert page_cost(graph, AV("a", "hub"), page_size=10) == 3
        assert page_cost(graph, AV("b", "w0"), page_size=10) == 1


class TestBuildFromTable:
    def test_queriable_only_drops_hidden(self, books):
        full = build_avg_from_table(books)
        queriable = build_avg_from_table(books, queriable_only=True)
        assert queriable.number_of_nodes() < full.number_of_nodes()
        assert all(n.attribute != "price" for n in queriable.nodes)

    def test_vertex_count_matches_table(self, books):
        graph = build_avg_from_table(books)
        assert graph.number_of_nodes() == books.num_distinct_values()


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a1", "a2", "a3"]),
            st.sampled_from(["b1", "b2", "b3", "b4"]),
        ),
        min_size=1,
        max_size=15,
    )
)
def test_property_vertices_equal_distinct_values(pairs):
    records = [make_record(i, a=a, b=b) for i, (a, b) in enumerate(pairs)]
    graph = build_avg(records)
    distinct = {pair for record in records for pair in record.attribute_values()}
    assert set(graph.nodes) == distinct


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a1", "a2"]),
            st.sampled_from(["b1", "b2", "b3"]),
            st.sampled_from(["c1", "c2"]),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_property_edge_iff_coexist(triples):
    records = [make_record(i, a=a, b=b, c=c) for i, (a, b, c) in enumerate(triples)]
    graph = build_avg(records)
    for u in graph.nodes:
        for v in graph.nodes:
            if u >= v:
                continue
            coexist = any(
                record.matches(u.attribute, u.value)
                and record.matches(v.attribute, v.value)
                for record in records
            )
            assert graph.has_edge(u, v) == coexist
