"""Tests for the command-line interface."""

import io as stdio
import json
import os
import pathlib
import re
import select
import signal
import socket
import subprocess
import sys
import time
import urllib.parse
import urllib.request

import pytest

import repro
from repro.cli import main
from repro.net.cluster import reuseport_supported
from repro.trace import validate_trace_jsonl


def run_cli(*argv):
    out = stdio.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def read_output(process, until=None, timeout=60.0):
    """Read a child's stdout until ``until`` appears, or to EOF if None.

    EOF comes once every process holding the pipe, the child's own
    children included, has closed it.
    """
    deadline = time.monotonic() + timeout
    seen = b""
    while until is None or until not in seen:
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select(
            [process.stdout], [], [], remaining
        )[0]:
            wanted = "EOF" if until is None else repr(until)
            raise AssertionError(f"no {wanted} in {timeout}s: {seen!r}")
        chunk = os.read(process.stdout.fileno(), 4096)
        if not chunk:
            if until is None:
                break
            raise AssertionError(f"no {until!r} before EOF: {seen!r}")
        seen += chunk
    return seen.decode("utf-8")


class TestDatasets:
    def test_lists_all(self):
        code, text = run_cli("datasets")
        assert code == 0
        for name in ("ebay", "imdb", "dblp", "acm"):
            assert name in text


class TestGenerate:
    def test_writes_file(self, tmp_path):
        out_path = tmp_path / "ebay.json"
        code, text = run_cli(
            "generate", "ebay", "--records", "120", "--out", str(out_path)
        )
        assert code == 0
        assert out_path.exists()
        assert "120" in text

    def test_gzip_output(self, tmp_path):
        out_path = tmp_path / "acm.json.gz"
        code, _text = run_cli(
            "generate", "acm", "--records", "80", "--out", str(out_path)
        )
        assert code == 0
        from repro import io

        assert len(io.load_table(out_path)) == 80


class TestCrawl:
    def test_crawl_builtin_dataset(self):
        code, text = run_cli(
            "crawl",
            "--dataset", "ebay",
            "--records", "400",
            "--policy", "greedy-link",
            "--target", "0.7",
            "--seed", "3",
        )
        assert code == 0
        assert "greedy-link" in text
        assert "rounds" in text

    def test_crawl_saved_table_with_history(self, tmp_path):
        table_path = tmp_path / "t.json"
        history_path = tmp_path / "h.csv"
        run_cli("generate", "dblp", "--records", "300", "--out", str(table_path))
        code, text = run_cli(
            "crawl",
            "--table", str(table_path),
            "--policy", "bfs",
            "--max-rounds", "150",
            "--history", str(history_path),
        )
        assert code == 0
        assert history_path.exists()
        assert history_path.read_text().startswith("rounds,records")

    def test_practical_policy(self):
        code, text = run_cli(
            "crawl",
            "--dataset", "ebay",
            "--records", "300",
            "--policy", "practical",
            "--target", "0.6",
        )
        assert code == 0
        assert "stopped by" in text

    def test_result_limit_flag(self):
        code, text = run_cli(
            "crawl",
            "--dataset", "ebay",
            "--records", "300",
            "--result-limit", "20",
            "--max-rounds", "100",
        )
        assert code == 0

    def test_requires_a_source(self, capsys):
        with pytest.raises(SystemExit):
            main(["crawl", "--policy", "bfs"])


class TestExperiment:
    def test_table1(self):
        code, text = run_cli("experiment", "table1")
        assert code == 0
        assert "Table 1" in text

    def test_figure2_small(self):
        code, text = run_cli("experiment", "figure2", "--records", "600")
        assert code == 0
        assert "Figure 2" in text

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "figure99"])

    def test_workers_flag_prints_speedup_table(self):
        code, text = run_cli(
            "experiment", "figure3",
            "--records", "400",
            "--workers", "2",
            "--seed", "1",
        )
        assert code == 0
        assert "Parallel experiment timing" in text
        assert "(2 workers)" in text

    def test_sequential_workers_matches_parallel_output(self):
        _code, sequential = run_cli(
            "experiment", "figure4", "--records", "500", "--workers", "1"
        )
        _code, parallel = run_cli(
            "experiment", "figure4", "--records", "500", "--workers", "2"
        )
        # Everything except the timing footer is bit-identical.
        strip = lambda text: text.split("Parallel experiment timing")[0]
        assert strip(parallel) == strip(sequential)

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            main(["experiment", "table1", "--workers", "0"])


class TestProfile:
    def test_profile_builtin_dataset(self):
        code, text = run_cli(
            "profile", "--dataset", "ebay", "--records", "300", "--probes", "10"
        )
        assert code == 0
        assert "hit rate" in text
        assert "Source profile" in text

    def test_profile_saved_table(self, tmp_path):
        table_path = tmp_path / "t.json"
        run_cli("generate", "acm", "--records", "200", "--out", str(table_path))
        code, text = run_cli("profile", "--table", str(table_path), "--probes", "8")
        assert code == 0
        assert "probes issued" in text

    def test_adaptive_policy_available(self):
        code, text = run_cli(
            "crawl", "--dataset", "dblp", "--records", "300",
            "--policy", "adaptive", "--max-rounds", "80",
        )
        assert code == 0
        assert "adaptive-attribute" in text


class TestNetworkLane:
    """The serve/loadtest verbs and crawl --remote."""

    @pytest.fixture()
    def live_service(self):
        from repro.datasets import load_dataset
        from repro.net import ServerThread, SourceService
        from repro.server import SimulatedWebDatabase

        table = load_dataset("imdb", 800, seed=1)
        service = SourceService(
            {"imdb": SimulatedWebDatabase(table, page_size=10)}
        )
        with ServerThread(service) as url:
            yield url

    def test_serve_requires_a_source(self):
        code, text = run_cli("serve")
        assert code == 2
        assert "nothing to serve" in text

    @pytest.fixture()
    def serve(self):
        """Start ``repro serve`` in a session of its own; yields a starter.

        The child starts with SIGINT ignored, as a shell script's
        background job does (CI starts it so).  Teardown kills the
        whole session, so no worker outlives a failed test.
        """
        if not reuseport_supported():
            pytest.skip("SO_REUSEPORT unavailable")
        src = pathlib.Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")])
        )
        ignoring_sigint = (
            "import os, signal, sys; "
            "signal.signal(signal.SIGINT, signal.SIG_IGN); "
            "os.execv(sys.executable, sys.argv[1:])"
        )
        started = []

        def start(*extra):
            process = subprocess.Popen(
                [
                    sys.executable, "-c", ignoring_sigint,
                    sys.executable, "-m", "repro", "serve",
                    "--dataset", "imdb", "--records", "200", "--seed", "1",
                    "--port", "0", *extra,
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                env=env,
                start_new_session=True,
            )
            started.append(process)
            banner = read_output(process, until=b"stop with Ctrl-C")
            url = re.search(r"source\(s\) at (\S+)", banner).group(1)
            return process, banner, url

        yield start
        for process in started:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
            process.stdout.close()

    def test_serve_runs_a_one_worker_cluster(self, serve, tmp_path):
        """At its default ``--workers 1``, ``serve`` starts a cluster."""
        trace = tmp_path / "server.jsonl"
        process, banner, url = serve(
            "--trace-out", str(trace), "--trace-canonical"
        )
        assert banner.startswith("cluster: 1 workers (process mode)\n")
        health = f"{url}/debug/health"
        with urllib.request.urlopen(health, timeout=10) as answer:
            assert json.loads(answer.read()) == {
                "ok": True, "mode": "process", "workers": 1
            }
        target = f"{url}/sources/imdb/truth/sample?n=1&seed=1"
        with urllib.request.urlopen(target, timeout=10) as answer:
            ((attribute, value),) = json.loads(answer.read())["values"]
        query = f"{url}/sources/imdb/query?" + urllib.parse.urlencode(
            {"a": attribute, "v": value}
        )
        with urllib.request.urlopen(query, timeout=10) as answer:
            assert answer.status == 200
        process.send_signal(signal.SIGINT)
        assert process.wait(timeout=60) == 0
        assert read_output(process).splitlines() == [
            "shutting down",
            "served 3 requests, 1 rounds",
            f"server trace written to {trace} (0 request groups)",
        ]
        assert validate_trace_jsonl(trace) == 0

    def test_killed_serve_leaves_no_worker_behind(self, serve):
        """Workers notice their parent's death and stop serving."""
        process, _banner, url = serve("--workers", "2")
        port = int(url.rsplit(":", 1)[1])
        process.kill()
        process.wait()
        read_output(process, timeout=30)  # every worker has exited
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", port), timeout=5)

    def test_remote_crawl_matches_local_crawl(self, live_service):
        local_code, local_text = run_cli(
            "crawl", "--dataset", "imdb", "--records", "800",
            "--target", "0.6", "--seed", "1",
        )
        remote_code, remote_text = run_cli(
            "crawl", "--remote", live_service,
            "--target", "0.6", "--seed", "1",
        )
        assert local_code == 0 and remote_code == 0
        # Same seed line, same result line (rounds, queries, records).
        local_lines = local_text.splitlines()
        remote_lines = remote_text.splitlines()
        assert remote_lines[0] == local_lines[0]  # seed value: ...
        result = [l for l in local_lines if l.startswith("greedy-link")]
        assert [l for l in remote_lines if l.startswith("greedy-link")] == result
        assert any(l.startswith("wire time:") for l in remote_lines)

    def test_remote_crawl_rejects_checkpointing(self, live_service, tmp_path):
        code, text = run_cli(
            "crawl", "--remote", live_service,
            "--checkpoint-dir", str(tmp_path / "ck"),
        )
        assert code == 2
        assert "local source" in text

    def test_loadtest_reports_and_writes_bench(self, live_service, tmp_path):
        bench = tmp_path / "BENCH_net.json"
        code, text = run_cli(
            "loadtest", live_service,
            "--sessions", "20", "--queries", "1",
            "--value-pool", "16", "--bench-out", str(bench),
        )
        assert code == 0
        assert "p95=" in text and "p99=" in text
        assert "throughput=" in text
        import json

        payload = json.loads(bench.read_text())
        assert "speedup" in payload["policies"]["loadtest"]


class TestCrawlProfiling:
    def _profiled(self, tmp_path, *extra):
        profile_path = tmp_path / "crawl.prof"
        code, text = run_cli(
            "crawl",
            "--dataset", "ebay",
            "--records", "300",
            "--policy", "greedy-link",
            "--max-rounds", "80",
            "--profile", str(profile_path),
            *extra,
        )
        assert code == 0
        assert profile_path.exists()
        return text

    @staticmethod
    def _summary_rows(text):
        """Rows of the printed cProfile table (between header and footer)."""
        lines = text.splitlines()
        start = next(
            i for i, line in enumerate(lines) if line.lstrip().startswith("ncalls")
        )
        rows = []
        for line in lines[start + 1:]:
            if not line.strip():
                break
            rows.append(line)
        return rows

    def test_profile_top_limits_the_summary(self, tmp_path):
        text = self._profiled(tmp_path, "--profile-top", "5")
        assert "cumulative" in text
        assert len(self._summary_rows(text)) == 5
        assert "profile stats written to" in text

    def test_profile_top_defaults_to_25(self, tmp_path):
        text = self._profiled(tmp_path)
        assert len(self._summary_rows(text)) == 25

    def test_profile_dump_is_loadable(self, tmp_path):
        import pstats

        self._profiled(tmp_path, "--profile-top", "1")
        stats = pstats.Stats(str(tmp_path / "crawl.prof"))
        assert stats.total_calls > 0
