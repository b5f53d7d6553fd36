"""Shared fixtures: tiny hand-built tables and small generated sources.

The hand-built ``books`` table is small enough to reason about exactly
in assertions; the generated fixtures are session-scoped so the many
tests that need a realistic source don't regenerate it each time.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings as hypothesis_settings

# Two hypothesis profiles: the default keeps the suite fast; "thorough"
# (REPRO_TEST_PROFILE=thorough) multiplies example counts for deeper
# soak runs in CI.
hypothesis_settings.register_profile("thorough", max_examples=300, deadline=None)
hypothesis_settings.register_profile("fast", deadline=None)
hypothesis_settings.load_profile(os.environ.get("REPRO_TEST_PROFILE", "fast"))

import repro
from repro.core import Record, RelationalTable, Schema
from repro.datasets import (
    IMDB_DT_ATTRIBUTES,
    MovieUniverse,
    generate_amazon_dvd,
    generate_ebay,
    imdb_table_from_movies,
)
from repro.domain import build_domain_table
from repro.server import SimulatedWebDatabase


@pytest.fixture
def books_schema() -> Schema:
    return Schema.of(
        "title",
        "publisher",
        author={"multivalued": True},
        price={"queriable": False},
    )


@pytest.fixture
def books(books_schema) -> RelationalTable:
    """Nine books with deliberate hub structure.

    - publisher "orbit" appears in 4 records (the hub);
    - author "knuth" spans two publishers (a bridge vertex);
    - record 8 is an island (unique values everywhere).
    """
    table = RelationalTable(books_schema, name="books")
    rows = [
        {"title": "alpha", "publisher": "orbit", "author": ["knuth"], "price": "10"},
        {"title": "beta", "publisher": "orbit", "author": ["knuth", "liskov"], "price": "12"},
        {"title": "gamma", "publisher": "orbit", "author": ["liskov"], "price": "15"},
        {"title": "delta", "publisher": "orbit", "author": ["hopper"], "price": "8"},
        {"title": "epsilon", "publisher": "mitp", "author": ["knuth"], "price": "30"},
        {"title": "zeta", "publisher": "mitp", "author": ["dijkstra"], "price": "22"},
        {"title": "eta", "publisher": "southbank", "author": ["hamilton"], "price": "18"},
        {"title": "theta", "publisher": "southbank", "author": ["hamilton", "hopper"], "price": "9"},
        {"title": "iota", "publisher": "lonepress", "author": ["solo"], "price": "55"},
    ]
    table.insert_rows(rows)
    return table


@pytest.fixture
def books_server(books) -> SimulatedWebDatabase:
    return SimulatedWebDatabase(books, page_size=2)


@pytest.fixture(scope="session")
def small_ebay() -> RelationalTable:
    return generate_ebay(n_records=1200, seed=13)


@pytest.fixture(scope="session")
def movie_universe() -> MovieUniverse:
    return MovieUniverse(n_movies=1500, seed=21, obscure_fraction=0.2)


@pytest.fixture(scope="session")
def dvd_store(movie_universe) -> RelationalTable:
    return generate_amazon_dvd(movie_universe, seed=8)


@pytest.fixture(scope="session")
def dvd_domain_table(movie_universe):
    sample = imdb_table_from_movies(movie_universe.since(1960), name="imdb-dm1")
    return build_domain_table(sample, attributes=IMDB_DT_ATTRIBUTES)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


def make_record(record_id: int, **fields) -> Record:
    """Loose record builder for graph/unit tests (no schema check)."""
    cleaned = {
        key: (value if isinstance(value, tuple) else (value,))
        for key, value in fields.items()
    }
    return Record(record_id, cleaned)


def modules_loaded_after(imports, watched) -> set:
    """Which of the ``watched`` modules a fresh interpreter holds after
    importing ``imports`` (import hygiene: what a process pays to load)."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH", "")) if p)
    code = "import sys\n" + "".join(f"import {m}\n" for m in imports) + (
        f"print(' '.join(m for m in {tuple(watched)!r} if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())
