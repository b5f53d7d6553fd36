"""A damaged or mismatched checkpoint fails typed, and ``repro resume``
reports it on one line with exit code 2 instead of a traceback."""

from __future__ import annotations

import json

import pytest

from repro.core.errors import CrawlError
from repro.crawler.engine import CrawlerEngine
from repro.policies import GreedyFrequencySelector, GreedyLinkSelector
from repro.runtime.checkpoint import CheckpointError
from repro.runtime.crawler import CHECKPOINT_FILE, RuntimeCrawler
from repro.server.webdb import SimulatedWebDatabase

from tests.runtime.test_cli_runtime import CRAWL_ARGS, run_cli

SEED = [("publisher", "orbit")]


def books_source(books):
    return SimulatedWebDatabase(books, page_size=2)


def suspend(directory, books):
    """A greedy-link crawl of ``books`` suspended after two steps."""
    runtime = RuntimeCrawler(
        CrawlerEngine(books_source(books), GreedyLinkSelector(), seed=0),
        checkpoint_dir=directory,
    )
    runtime.crawl(SEED, stop_after_steps=2)
    runtime.close()
    return directory / CHECKPOINT_FILE


def edit_checkpoint(path, change):
    payload = json.loads(path.read_text())
    change(payload)
    path.write_text(json.dumps(payload))


def resume(directory, books, selector=None):
    return RuntimeCrawler.resume(
        directory, books_source(books), selector or GreedyLinkSelector()
    )


class TestEngineState:
    def test_a_different_selector_is_refused(self, tmp_path, books):
        suspend(tmp_path, books)
        with pytest.raises(CrawlError, match="greedy-link"):
            resume(tmp_path, books, GreedyFrequencySelector())

    def test_a_checkpoint_without_the_selector_name_still_loads(
        self, tmp_path, books
    ):
        straight = CrawlerEngine(
            books_source(books), GreedyLinkSelector(), seed=0
        ).crawl(SEED)
        path = suspend(tmp_path, books)
        edit_checkpoint(path, lambda p: p["engine"].pop("selector_name"))
        runtime = resume(tmp_path, books)
        assert runtime.run() == straight
        runtime.close()

    def test_a_missing_engine_key_is_named(self, tmp_path, books):
        path = suspend(tmp_path, books)
        edit_checkpoint(path, lambda p: p["engine"].pop("started"))
        with pytest.raises(CheckpointError, match="'started'"):
            resume(tmp_path, books)

    def test_a_missing_selector_key_is_named(self, tmp_path, books):
        path = suspend(tmp_path, books)
        edit_checkpoint(path, lambda p: p["engine"].update(selector={}))
        with pytest.raises(CheckpointError, match="selector state .*'frontier'"):
            resume(tmp_path, books)


@pytest.fixture
def cli_checkpoint(tmp_path):
    directory = tmp_path / "ck"
    code, _ = run_cli(
        *CRAWL_ARGS,
        "--checkpoint-dir", str(directory),
        "--stop-after-steps", "10",
    )
    assert code == 0
    return directory


class TestResumeCli:
    def test_a_policy_edited_in_the_setup_exits_2(self, cli_checkpoint):
        edit_checkpoint(
            cli_checkpoint / CHECKPOINT_FILE,
            lambda p: p["setup"].update(policy="bfs"),
        )
        code, text = run_cli("resume", str(cli_checkpoint))
        assert code == 2
        assert "cannot resume" in text
        assert "selector mismatch" in text

    @pytest.mark.parametrize("keep", [100, 0], ids=["truncated", "empty"])
    def test_an_unreadable_checkpoint_exits_2(self, cli_checkpoint, keep):
        path = cli_checkpoint / CHECKPOINT_FILE
        path.write_bytes(path.read_bytes()[:keep])
        code, text = run_cli("resume", str(cli_checkpoint))
        assert code == 2
        assert "cannot read checkpoint" in text
