"""End-to-end CLI tests for ``repro crawl --checkpoint-dir`` and ``repro resume``."""

from __future__ import annotations

import io as stdio

import pytest

from repro.cli import main


def run_cli(*argv):
    out = stdio.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


CRAWL_ARGS = (
    "crawl",
    "--dataset", "ebay",
    "--records", "400",
    "--policy", "greedy-link",
    "--seed", "5",
    "--max-queries", "60",
)


def report_line(text):
    """The one-line crawl report (records/rounds/queries/stopped-by)."""
    for line in text.splitlines():
        if line.startswith("greedy-link:"):
            return line
    raise AssertionError(f"no report line in: {text!r}")


class TestDurableCrawlCli:
    def test_checkpoint_suspend_resume_round_trip(self, tmp_path):
        checkpoint_dir = tmp_path / "ck"
        code, text = run_cli(
            *CRAWL_ARGS,
            "--checkpoint-dir", str(checkpoint_dir),
            "--checkpoint-every", "10",
            "--stop-after-steps", "17",
        )
        assert code == 0
        assert "stopped by suspended" in text
        assert "repro resume" in text
        assert (checkpoint_dir / "checkpoint.json").exists()
        assert (checkpoint_dir / "journal.jsonl").exists()

        code, resumed = run_cli("resume", str(checkpoint_dir))
        assert code == 0
        assert "resumed from step" in resumed

        # Ground truth: the same crawl uninterrupted.
        code, straight = run_cli(*CRAWL_ARGS)
        assert code == 0
        assert report_line(resumed) == report_line(straight)

    def test_durable_crawl_prints_metrics(self, tmp_path):
        code, text = run_cli(
            *CRAWL_ARGS, "--checkpoint-dir", str(tmp_path / "ck")
        )
        assert code == 0
        assert "Event-bus crawl metrics" in text
        assert "pages/query" in text
        assert "checkpoints written" in text

    def test_practical_policy_refuses_checkpointing(self, tmp_path):
        code, text = run_cli(
            "crawl",
            "--dataset", "ebay",
            "--records", "200",
            "--policy", "practical",
            "--checkpoint-dir", str(tmp_path / "ck"),
        )
        assert code == 2
        assert "practical" in text

    def test_resume_history_csv(self, tmp_path):
        checkpoint_dir = tmp_path / "ck"
        run_cli(
            *CRAWL_ARGS,
            "--checkpoint-dir", str(checkpoint_dir),
            "--stop-after-steps", "5",
        )
        history = tmp_path / "history.csv"
        code, _text = run_cli(
            "resume", str(checkpoint_dir), "--history", str(history)
        )
        assert code == 0
        assert history.exists()
        assert "rounds" in history.read_text().splitlines()[0]

    def test_resume_without_setup_recipe_is_refused(self, tmp_path, books):
        from repro.crawler.engine import CrawlerEngine
        from repro.policies import GreedyLinkSelector
        from repro.runtime.crawler import RuntimeCrawler
        from repro.server.webdb import SimulatedWebDatabase

        runtime = RuntimeCrawler(
            CrawlerEngine(
                SimulatedWebDatabase(books, page_size=2),
                GreedyLinkSelector(),
                seed=0,
            ),
            checkpoint_dir=tmp_path / "api-ck",
        )
        runtime.crawl([("publisher", "orbit")], stop_after_steps=2)
        runtime.close()
        code, text = run_cli("resume", str(tmp_path / "api-ck"))
        assert code == 2
        assert "no setup recipe" in text


def rollup_row(text):
    """``(queries, pages, new)`` from the Event-bus crawl metrics row."""
    lines = text.splitlines()
    start = lines.index("Event-bus crawl metrics")
    cells = [cell.strip() for cell in lines[start + 3].split("|")]
    assert cells[0] == "greedy-link", cells
    return tuple(int(cell.replace(",", "")) for cell in cells[1:4])


def result_counts(text):
    """``(queries, rounds, records)`` from the one-line crawl report."""
    import re

    match = re.search(
        r"([\d,]+) records .* in ([\d,]+) rounds, ([\d,]+) queries",
        report_line(text),
    )
    records, rounds, queries = (int(g.replace(",", "")) for g in match.groups())
    return queries, rounds, records


class TestOneCrawlPath:
    def test_stop_after_steps_needs_a_checkpoint_dir(self):
        code, text = run_cli(*CRAWL_ARGS, "--stop-after-steps", "5")
        assert code == 2
        assert "--stop-after-steps requires --checkpoint-dir" in text
        assert "seed value" not in text

    def test_durable_crawl_writes_the_sample_profile(self, tmp_path):
        profile = tmp_path / "crawl.folded"
        code, text = run_cli(
            *CRAWL_ARGS,
            "--checkpoint-dir", str(tmp_path / "ck"),
            "--sample-profile", str(profile),
            "--sample-interval", "0.001",
        )
        assert code == 0
        assert profile.exists()
        assert f"profile samples: {profile}" in text

    @pytest.mark.parametrize("resumes", [1, 2])
    def test_resumed_rollup_matches_the_result_line(self, tmp_path, resumes):
        """Roll-up queries/pages/new equal the result's queries/rounds/records.

        The second resume of the same checkpoint replays every step the
        first one journaled.
        """
        checkpoint_dir = tmp_path / "ck"
        run_cli(
            *CRAWL_ARGS,
            "--checkpoint-dir", str(checkpoint_dir),
            "--stop-after-steps", "10",
        )
        for _ in range(resumes):
            code, resumed = run_cli("resume", str(checkpoint_dir))
            assert code == 0
        assert rollup_row(resumed) == result_counts(resumed)
        code, straight = run_cli(
            *CRAWL_ARGS, "--checkpoint-dir", str(tmp_path / "straight")
        )
        assert rollup_row(straight) == result_counts(straight)
        assert rollup_row(resumed) == rollup_row(straight)
