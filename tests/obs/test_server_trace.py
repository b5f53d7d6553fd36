"""Server-side span groups: recording, merging, placement invariance."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    ServerSpanTracer,
    merge_groups,
    parse_trace_header,
    write_server_trace,
)
from repro.obs.server_trace import (
    SERVER_PHASES,
    group_public,
    group_root_id,
    group_span_lines,
)
from repro.trace import load_trace, validate_trace_jsonl


def record_group(
    tracer,
    ctx="s1/q0/p1",
    trace="t",
    status=200,
    attempt=0,
    records=3,
):
    rec = tracer.begin(f"{trace};{ctx};{attempt}")
    rec.source = "imdb"
    for phase in ("limiter", "parse", "cache"):
        rec.start(phase)
        rec.end()
    rec.start("render")
    rec.end(records=records, bytes=100)
    rec.start("serialize")
    rec.end()
    tracer.commit(rec, status)


class TestParseTraceHeader:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            "",
            "t",
            "t;notactx",
            "t;s1/q0;0",  # not a fetch-span context
            ";s1/q0/p1;0",  # empty trace id
            "t;s1/q0/p1x;0",
        ],
    )
    def test_malformed_means_no_tracing(self, value):
        assert parse_trace_header(value) is None

    def test_parses_full_header(self):
        assert parse_trace_header("greedy-s0;s3/q2/p4;1") == (
            "greedy-s0",
            "s3/q2/p4",
            3,
            2,
            4,
            1,
        )

    def test_attempt_defaults_to_zero(self):
        assert parse_trace_header("t;s1/q0/p1") == ("t", "s1/q0/p1", 1, 0, 1, 0)
        assert parse_trace_header("t;s1/q0/p1;x")[5] == 0
        assert parse_trace_header("t;s1/q0/p1;-3")[5] == 0
        assert parse_trace_header("t;s1/q0/p1;" + "9" * 5000)[5] == 0

    @pytest.mark.parametrize("field", ["s{}/q1/p1", "s1/q{}/p1", "s1/q1/p{}"])
    def test_oversized_id_means_no_tracing(self, field):
        assert parse_trace_header("t;" + field.format("5" * 5000)) is None


#: Digit runs on both sides of int()'s 4,300-digit limit, any script.
digit_runs = (
    st.integers(min_value=0, max_value=10**6).map(str)
    | st.integers(min_value=4290, max_value=4310).map(lambda n: "7" * n)
    | st.text(alphabet=st.characters(whitelist_categories=("Nd",)), min_size=1)
)
header_like = st.builds(
    "{};s{}/q{}/p{};{}".format,
    st.text(max_size=6),
    digit_runs,
    digit_runs,
    digit_runs,
    st.text(max_size=6) | digit_runs,
)


@settings(max_examples=300, deadline=None)
@given(st.none() | st.text() | header_like)
def test_property_any_header_parses_to_none_or_a_six_tuple(value):
    parsed = parse_trace_header(value)
    assert parsed is None or (isinstance(parsed, tuple) and len(parsed) == 6)


class TestTracer:
    def test_begin_returns_none_without_header(self):
        tracer = ServerSpanTracer()
        assert tracer.begin(None) is None
        assert tracer.begin("garbage") is None

    def test_commit_records_group(self):
        tracer = ServerSpanTracer(include_timings=False)
        record_group(tracer, status=200)
        (group,) = tracer.payload()
        assert group["trace"] == "t"
        assert group["ctx"] == "s1/q0/p1"
        assert (group["step"], group["q"], group["page"]) == (1, 0, 1)
        assert group["source"] == "imdb"
        assert group["status"] == 200
        assert [p[0] for p in group["phases"]] == list(SERVER_PHASES)
        assert tracer.stats() == {"groups": 1, "dropped": 0}

    def test_max_groups_drops_beyond_bound(self):
        tracer = ServerSpanTracer(include_timings=False, max_groups=2)
        for page in (1, 2, 3):
            record_group(tracer, ctx=f"s1/q0/p{page}")
        assert tracer.stats() == {"groups": 2, "dropped": 1}

    def test_tail_returns_most_recent(self):
        tracer = ServerSpanTracer(include_timings=False)
        for page in (1, 2, 3):
            record_group(tracer, ctx=f"s1/q0/p{page}")
        tail = tracer.tail(2)
        assert [g["page"] for g in tail] == [2, 3]

    def test_timed_recorder_measures_phases(self):
        tracer = ServerSpanTracer(include_timings=True)
        record_group(tracer)
        (group,) = tracer.payload()
        assert all(p[2] >= 0.0 for p in group["phases"])


class TestMergeAndRootIds:
    def test_merge_sorts_by_context_not_arrival(self):
        a = ServerSpanTracer(include_timings=False)
        b = ServerSpanTracer(include_timings=False)
        record_group(a, ctx="s2/q0/p1")
        record_group(b, ctx="s1/q0/p2")
        record_group(b, ctx="s1/q0/p1")
        merged = merge_groups([a.payload(), b.payload()])
        assert [(g["step"], g["page"]) for g in merged] == [
            (1, 1),
            (1, 2),
            (2, 1),
        ]

    def test_retry_attempts_stay_distinct(self):
        tracer = ServerSpanTracer(include_timings=False)
        record_group(tracer, attempt=0)
        record_group(tracer, attempt=1)
        groups = merge_groups([tracer.payload()])
        assert group_root_id(groups[0]) == "s1/q0/p1/srv"
        assert group_root_id(groups[1]) == "s1/q0/p1/srv1"
        lines = group_span_lines(groups[1], 0, timed=False)
        root = json.loads(lines[0])
        assert root["attrs"]["attempt"] == 1


class TestWriteServerTrace:
    def test_output_validates_as_repro_trace(self, tmp_path):
        tracer = ServerSpanTracer(include_timings=False)
        record_group(tracer, ctx="s1/q0/p1")
        record_group(tracer, ctx="s1/q0/p2")
        path = tmp_path / "server.jsonl"
        spans = write_server_trace(path, tracer.payload(),
                                   include_timings=False)
        assert spans == 2 * (1 + len(SERVER_PHASES))
        assert validate_trace_jsonl(path) == spans
        trace = load_trace(path)
        assert trace.header["side"] == "server"
        assert trace.header["trace"] == "t"

    def test_bytes_identical_across_worker_placements(self, tmp_path):
        """The core placement-invariance claim, minus the sockets."""
        contexts = [f"s{s}/q{q}/p{p}"
                    for s in (1, 2) for q in (0, 1) for p in (1, 2)]
        # Placement A: all groups on one worker, arrival order as-is.
        one = ServerSpanTracer(include_timings=False)
        for ctx in contexts:
            record_group(one, ctx=ctx)
        # Placement B: groups scattered over three workers, reversed.
        shards = [ServerSpanTracer(include_timings=False) for _ in range(3)]
        for index, ctx in enumerate(reversed(contexts)):
            record_group(shards[index % 3], ctx=ctx)
        path_a = tmp_path / "a.jsonl"
        path_b = tmp_path / "b.jsonl"
        write_server_trace(path_a, merge_groups([one.payload()]),
                           include_timings=False)
        write_server_trace(
            path_b,
            merge_groups([shard.payload() for shard in shards]),
            include_timings=False,
        )
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_multiple_trace_ids_become_task_segments(self, tmp_path):
        tracer = ServerSpanTracer(include_timings=False)
        record_group(tracer, trace="crawl-a")
        record_group(tracer, trace="crawl-b")
        path = tmp_path / "server.jsonl"
        write_server_trace(path, tracer.payload(), include_timings=False)
        trace = load_trace(path)
        assert "trace" not in trace.header
        assert [task.label for task in trace.tasks] == ["crawl-a", "crawl-b"]

    def test_timed_output_also_validates(self, tmp_path):
        tracer = ServerSpanTracer(include_timings=True)
        record_group(tracer)
        path = tmp_path / "timed.jsonl"
        write_server_trace(path, tracer.payload(), include_timings=True)
        trace = load_trace(path)
        assert all("t" in span for span in trace.spans)


class TestGroupPublic:
    def test_console_view_shape(self):
        tracer = ServerSpanTracer(include_timings=False)
        record_group(tracer, status=404)
        public = group_public(tracer.payload()[0])
        assert public["id"] == "s1/q0/p1/srv"
        assert public["status"] == 404
        assert public["phases"] == list(SERVER_PHASES)
        assert public["wall_s"] == 0.0
