"""Unit tests for degree-distribution analysis and power-law fitting."""

import networkx as nx
import numpy as np
import pytest

from repro.graph import (
    ccdf,
    degree_histogram,
    degree_sequence,
    fit_power_law,
    fit_power_law_points,
    hub_fraction,
    loglog_points,
)


def zipf_like_graph(n=400, seed=3):
    """A Barabási–Albert graph — a guaranteed power-law-ish testbed."""
    return nx.barabasi_albert_graph(n, 2, seed=seed)


class TestHistogram:
    def test_counts_sum_to_nodes(self):
        graph = zipf_like_graph()
        histogram = degree_histogram(graph)
        assert sum(histogram.values()) == graph.number_of_nodes()

    def test_star_graph(self):
        histogram = degree_histogram(nx.star_graph(5))
        assert histogram == {5: 1, 1: 5}

    def test_degree_sequence_sorted_desc(self):
        sequence = degree_sequence(zipf_like_graph())
        assert sequence == sorted(sequence, reverse=True)


class TestLogLogPoints:
    def test_drops_zero_degrees(self):
        graph = nx.Graph()
        graph.add_nodes_from([1, 2])
        graph.add_edge(3, 4)
        x, y = loglog_points(degree_histogram(graph))
        assert len(x) == 1  # only degree 1 survives

    def test_values_are_logs(self):
        x, y = loglog_points({10: 100})
        assert x[0] == pytest.approx(1.0)
        assert y[0] == pytest.approx(2.0)


class TestFit:
    def test_exact_line_recovered(self):
        # frequency = 1000 * degree^-2 exactly.
        degrees = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        frequencies = 1000.0 * degrees**-2
        fit = fit_power_law_points(np.log10(degrees), np.log10(frequencies))
        assert fit.slope == pytest.approx(-2.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.exponent == pytest.approx(2.0, abs=1e-9)
        assert fit.intercept == pytest.approx(3.0, abs=1e-9)

    def test_ba_graph_heavy_tail(self):
        fit = fit_power_law(zipf_like_graph())
        assert fit.slope < -1.0
        assert fit.r_squared > 0.5

    def test_too_few_degrees_raises(self):
        graph = nx.complete_graph(3)  # all nodes degree 2
        with pytest.raises(ValueError):
            fit_power_law(graph)

    def test_fit_points_requires_two(self):
        with pytest.raises(ValueError):
            fit_power_law_points(np.array([1.0]), np.array([1.0]))

    def test_flat_distribution_r_squared_one_slope_zero(self):
        x = np.log10(np.array([1.0, 2.0, 4.0]))
        y = np.log10(np.array([5.0, 5.0, 5.0]))
        fit = fit_power_law_points(x, y)
        assert fit.slope == pytest.approx(0.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0)


class TestCcdf:
    def test_monotone_decreasing(self):
        degrees = degree_sequence(zipf_like_graph())
        values, probabilities = ccdf(degrees)
        assert all(
            probabilities[i] >= probabilities[i + 1]
            for i in range(len(probabilities) - 1)
        )

    def test_starts_at_one(self):
        values, probabilities = ccdf([1, 2, 3])
        assert probabilities[0] == pytest.approx(1.0)

    def test_last_value_fraction(self):
        values, probabilities = ccdf([1, 1, 1, 5])
        assert probabilities[-1] == pytest.approx(0.25)


class TestHubFraction:
    def test_star_hub_owns_half(self):
        # Star with n spokes: center has degree n of total 2n.
        share = hub_fraction(nx.star_graph(99), top_fraction=0.01)
        assert share == pytest.approx(0.5)

    def test_regular_graph_no_hubs(self):
        share = hub_fraction(nx.cycle_graph(100), top_fraction=0.01)
        assert share == pytest.approx(0.01)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            hub_fraction(nx.path_graph(3), top_fraction=0.0)

    def test_empty_graph(self):
        assert hub_fraction(nx.Graph(), 0.5) == 0.0
