"""Unit tests for the shared movie universe and its two databases."""

import pytest

from repro.core import DatasetError
from repro.datasets import (
    IMDB_DT_ATTRIBUTES,
    MovieUniverse,
    generate_amazon_dvd,
    generate_imdb,
    imdb_table_from_movies,
)


class TestUniverse:
    def test_deterministic(self):
        a = MovieUniverse(100, seed=3)
        b = MovieUniverse(100, seed=3)
        assert a.movies == b.movies

    def test_years_in_range(self, movie_universe):
        assert all(1930 <= movie.year <= 2005 for movie in movie_universe.movies)

    def test_since_filters(self, movie_universe):
        recent = movie_universe.since(1980)
        assert all(movie.year >= 1980 for movie in recent)
        assert len(recent) < len(movie_universe.movies)
        assert len(movie_universe.since(1960)) > len(recent)

    def test_obscure_fraction_bounds(self):
        with pytest.raises(DatasetError):
            MovieUniverse(10, obscure_fraction=1.0)
        with pytest.raises(DatasetError):
            MovieUniverse(0)

    def test_obscure_movies_have_one_off_casts(self):
        universe = MovieUniverse(400, seed=9, obscure_fraction=0.5)
        appearances = {}
        for movie in universe.movies:
            for person in movie.actors + movie.actresses:
                appearances.setdefault(person, []).append(movie.title)
        singles = sum(1 for titles in appearances.values() if len(titles) == 1)
        assert singles / len(appearances) > 0.4

    def test_zero_obscure_fraction_allowed(self):
        universe = MovieUniverse(50, seed=1, obscure_fraction=0.0)
        assert len(universe.movies) == 50


class TestImdbTable:
    def test_full_universe(self, movie_universe):
        table = generate_imdb(universe=movie_universe)
        assert len(table) == movie_universe.n_movies
        assert "actor" in table.schema.queriable
        assert "year" not in table.schema.queriable

    def test_subset_table(self, movie_universe):
        subset = movie_universe.since(1980)
        table = imdb_table_from_movies(subset, name="imdb-80s")
        assert len(table) == len(subset)
        assert table.name == "imdb-80s"

    def test_dt_attributes_exist_in_imdb_schema(self, movie_universe):
        table = generate_imdb(universe=movie_universe)
        for attribute in IMDB_DT_ATTRIBUTES:
            assert attribute in table.schema


class TestAmazonStore:
    def test_recency_bias(self, movie_universe, dvd_store):
        universe_years = [movie.year for movie in movie_universe.movies]
        store_years = [int(record.values_of("year")[0]) for record in dvd_store]
        assert sum(store_years) / len(store_years) > sum(universe_years) / len(
            universe_years
        )

    def test_people_only_interface(self, dvd_store):
        assert set(dvd_store.schema.queriable) == {
            "title",
            "actor",
            "actress",
            "director",
        }

    def test_overlap_with_universe(self, movie_universe, dvd_store):
        universe_titles = {movie.title for movie in movie_universe.movies}
        store_titles = {record.values_of("title")[0] for record in dvd_store}
        shared = store_titles & universe_titles
        assert len(shared) > 0.8 * len(store_titles)  # mostly catalogue
        assert store_titles - universe_titles  # plus store exclusives

    def test_catalogue_fraction_scales_size(self, movie_universe):
        small = generate_amazon_dvd(movie_universe, catalogue_fraction=0.3, seed=1)
        large = generate_amazon_dvd(movie_universe, catalogue_fraction=0.9, seed=1)
        assert len(small) < len(large)

    def test_no_exclusives_when_zero(self, movie_universe):
        store = generate_amazon_dvd(
            movie_universe, exclusive_fraction=0.0, seed=1
        )
        universe_titles = {movie.title for movie in movie_universe.movies}
        assert all(
            record.values_of("title")[0] in universe_titles for record in store
        )

    def test_bad_fractions(self, movie_universe):
        with pytest.raises(DatasetError):
            generate_amazon_dvd(movie_universe, catalogue_fraction=0.0)
        with pytest.raises(DatasetError):
            generate_amazon_dvd(movie_universe, exclusive_fraction=-0.1)

    def test_store_has_data_islands(self, movie_universe, dvd_store):
        """Obscure movies are unreachable through the people/title graph."""
        from repro.graph import build_avg_from_table, record_connectivity

        graph = build_avg_from_table(dvd_store, queriable_only=True)
        connectivity = record_connectivity(list(dvd_store), graph)
        assert connectivity < 0.95  # islands exist ...
        assert connectivity > 0.5   # ... but the bulk is connected


class TestDomainOverlap:
    def test_dt_covers_most_store_people(self, dvd_store, dvd_domain_table):
        """The premise of Section 4: same-domain databases share values."""
        store_actors = dvd_store.distinct_values("actor")
        covered = sum(1 for value in store_actors if value in dvd_domain_table)
        assert covered / len(store_actors) > 0.6
