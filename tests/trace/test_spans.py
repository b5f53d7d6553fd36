"""Span JSONL schema: parsing, validation, and resume alignment."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.checkpoint import CrawlCheckpoint
from repro.runtime.crawler import CHECKPOINT_FILE
from repro.trace import (
    TRACE_SCHEMA,
    TraceError,
    TraceSink,
    load_trace,
    validate_trace_jsonl,
)
from repro.trace.sink import write_trace
from repro.trace.spans import SPAN_NAMES

from tests.trace.conftest import traced_crawl


@pytest.fixture(scope="module")
def traced(tmp_path_factory, flaky_table):
    root = tmp_path_factory.mktemp("spans")
    path = root / "trace.jsonl"
    result = traced_crawl(
        "greedy-link", flaky_table, path, checkpoint_dir=root / "ck"
    )
    return path, result, root / "ck"


class TestSchema:
    def test_header_and_span_count(self, traced):
        path, result, _ = traced
        spans = validate_trace_jsonl(path)
        trace = load_trace(path)
        assert trace.header["schema"] == TRACE_SCHEMA
        assert spans == len(trace.spans) > 0

    def test_every_step_has_one_root(self, traced):
        path, result, _ = traced
        trace = load_trace(path)
        roots = [span for span in trace.spans if span["parent"] is None]
        harvested = [r for r in roots if not r["attrs"].get("exhausted")]
        assert len(harvested) == result.queries_issued
        assert [r["id"] for r in harvested] == [
            f"s{i}" for i in range(1, len(harvested) + 1)
        ]

    def test_known_names_only(self, traced):
        path, _, _ = traced
        for span in load_trace(path).spans:
            assert span["name"] in SPAN_NAMES

    def test_seq_is_the_line_order(self, traced):
        path, _, _ = traced
        seqs = [span["seq"] for span in load_trace(path).spans]
        assert seqs == list(range(len(seqs)))

    def test_root_carries_cost_model_attrs(self, traced):
        path, result, _ = traced
        trace = load_trace(path)
        roots = [
            s
            for s in trace.spans
            if s["parent"] is None and not s["attrs"].get("exhausted")
        ]
        for root in roots:
            attrs = root["attrs"]
            assert attrs["records"] == attrs["new"] + attrs["dup"]
            assert attrs["rounds"] >= attrs["pages"]
        assert sum(r["attrs"]["rounds"] for r in roots) == (
            result.communication_rounds
        )
        assert roots[-1]["attrs"]["records_total"] == result.records_harvested


class TestValidation:
    def write(self, tmp_path, lines):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            "\n".join([json.dumps({"schema": TRACE_SCHEMA})] + lines) + "\n"
        )
        return path

    def span(self, **overrides):
        span = {
            "id": "s1",
            "parent": None,
            "name": "step",
            "step": 1,
            "seq": 0,
            "attrs": {},
        }
        span.update(overrides)
        return json.dumps(span)

    def test_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"schema": "other/9"}) + "\n")
        with pytest.raises(TraceError, match="schema"):
            load_trace(path)

    def test_rejects_missing_key(self, tmp_path):
        path = self.write(tmp_path, ['{"id": "s1", "name": "step"}'])
        with pytest.raises(TraceError):
            validate_trace_jsonl(path)

    def test_rejects_unknown_name(self, tmp_path):
        path = self.write(tmp_path, [self.span(name="teleport")])
        with pytest.raises(TraceError, match="teleport"):
            validate_trace_jsonl(path)

    def test_rejects_nonmonotonic_seq(self, tmp_path):
        path = self.write(
            tmp_path,
            [self.span(), self.span(id="s2", step=2, seq=0)],
        )
        with pytest.raises(TraceError, match="seq"):
            validate_trace_jsonl(path)

    def test_rejects_dangling_parent(self, tmp_path):
        path = self.write(
            tmp_path,
            [self.span(), self.span(id="s1/q0", parent="s1/q9", seq=1, name="fetch")],
        )
        with pytest.raises(TraceError, match="parent"):
            validate_trace_jsonl(path)

    def test_rejects_a_list_as_span_id(self, tmp_path):
        path = self.write(tmp_path, [self.span(id=["s1"])])
        with pytest.raises(TraceError, match="span id"):
            validate_trace_jsonl(path)


def reference_parent_error(lines):
    """The first parent-rule error in ``lines``, or ``None``.

    The rule read literally: for every span, the ids of all earlier
    spans of its step in the task, rebuilt each time.  Quadratic, and
    obviously right.
    """
    task = []
    for number, line in enumerate(lines, start=2):
        if "task" in line:
            task = []
            continue
        parent = line["parent"]
        known = {s["id"] for s in task if s["step"] == line["step"]}
        if parent is not None and parent not in known:
            return (
                f"line {number}: parent {parent!r} of {line['id']!r} "
                f"not seen earlier in step {line['step']}"
            )
        task.append(line)
    return None


trace_ids = st.sampled_from(["s1", "s1/q0", "s1/q0/p1", "s2", "s2/q0", "x"])
trace_lines = st.lists(
    st.one_of(
        st.fixed_dictionaries({"task": st.sampled_from(["gl", "bfs"])}),
        st.fixed_dictionaries(
            {
                "id": trace_ids,
                "parent": st.none() | trace_ids,
                "step": st.integers(0, 2),
            }
        ),
    ),
    max_size=25,
)


@settings(max_examples=300, deadline=None)
@given(trace_lines)
def test_property_parent_rule_matches_the_reference(tmp_path_factory, lines):
    """The per-step id sets accept and reject exactly what the rebuild did."""
    spans = []
    for seq, line in enumerate(lines):
        if "task" not in line:
            line = dict(line, name="step", seq=seq, attrs={})
        spans.append(line)
    path = tmp_path_factory.getbasetemp() / "parent-rule.jsonl"
    path.write_text(
        "\n".join(json.dumps(x) for x in [{"schema": TRACE_SCHEMA}, *spans])
        + "\n"
    )
    expected = reference_parent_error(spans)
    if expected is None:
        count = validate_trace_jsonl(path)
        assert count == sum("task" not in line for line in spans)
    else:
        with pytest.raises(TraceError) as error:
            validate_trace_jsonl(path)
        assert str(error.value) == expected


class TestAlign:
    def test_align_refuses_merged_grid_trace(self, tmp_path):
        path = tmp_path / "merged.jsonl"
        write_trace(path, [("gl", 0, [])])
        sink = TraceSink(path, fresh=False)
        with pytest.raises(TraceError, match="grid"):
            sink.align(step=1, rounds=1)

    def test_align_missing_file_seeds_from_checkpoint_state(self, tmp_path):
        sink = TraceSink(tmp_path / "fresh.jsonl", fresh=False)
        kept = sink.align(step=5, rounds=9, state={"next_seq": 42})
        assert kept == 0
        assert sink.state_dict() == {"next_seq": 42, "last_rounds": 9}

    def test_checkpoint_embeds_trace_state(self, tmp_path, flaky_table):
        """A suspension snapshot carries the sink's continuation state."""
        from repro.runtime.crawler import RuntimeCrawler
        from repro.runtime.events import EventBus

        from tests.trace.conftest import (
            TRACE_POLICIES,
            make_engine,
            seed_values,
        )

        bus = EventBus()
        tracer = bus.attach(
            TraceSink(tmp_path / "t.jsonl", include_timings=False)
        )
        runtime = RuntimeCrawler(
            make_engine(flaky_table, TRACE_POLICIES["greedy-link"](), bus=bus),
            checkpoint_dir=tmp_path,
            checkpoint_every=5,
            trace=tracer,
        )
        runtime.crawl(
            seed_values(flaky_table), max_queries=50, stop_after_steps=7
        )
        runtime.close()
        checkpoint = CrawlCheckpoint.load(tmp_path / CHECKPOINT_FILE)
        assert checkpoint.trace is not None
        assert checkpoint.trace["next_seq"] > 0
        assert checkpoint.trace == tracer.state_dict()
        payload = checkpoint.to_payload()
        assert CrawlCheckpoint.from_payload(payload).trace == checkpoint.trace
