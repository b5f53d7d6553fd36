"""Outcome codec and write-ahead journal tests, including crash torn-line cases."""

from __future__ import annotations

import random

import pytest

from repro.core.query import ConjunctiveQuery, Query
from repro.core.records import Record
from repro.core.values import AttributeValue
from repro.crawler.prober import QueryOutcome
from repro.runtime.journal import (
    JournalEntry,
    OutcomeJournal,
    decode_outcome,
    encode_outcome,
    read_journal,
)
from repro.runtime.serialize import (
    SerializationError,
    decode_query,
    decode_record,
    encode_query,
    encode_record,
    encode_rng,
    restore_rng,
)


def make_outcome(step: int = 1) -> QueryOutcome:
    return QueryOutcome(
        query=Query("honda", attribute="make"),
        pages_fetched=2,
        records_returned=12,
        new_records=[
            Record(10 * step, {"make": ("honda",), "model": ("civic", "crx")}),
            Record(10 * step + 1, {"make": ("honda",)}),
        ],
        candidate_values=[
            AttributeValue("model", "civic"),
            AttributeValue("model", "crx"),
        ],
        total_matches=37,
        accessible_matches=20,
    )


class TestOutcomeCodec:
    def test_round_trip_preserves_everything(self):
        outcome = make_outcome()
        again = decode_outcome(encode_outcome(outcome))
        assert again.query == outcome.query
        assert again.pages_fetched == outcome.pages_fetched
        assert again.records_returned == outcome.records_returned
        assert again.new_records == outcome.new_records
        assert again.candidate_values == outcome.candidate_values
        assert again.total_matches == outcome.total_matches
        assert again.accessible_matches == outcome.accessible_matches
        assert (again.aborted, again.rejected, again.failed) == (False, False, False)

    def test_round_trip_is_stable(self):
        payload = encode_outcome(make_outcome())
        assert encode_outcome(decode_outcome(payload)) == payload

    def test_conjunctive_query_round_trip(self):
        query = ConjunctiveQuery(
            predicates=(
                AttributeValue("make", "honda"),
                AttributeValue("model", "civic"),
            )
        )
        assert decode_query(encode_query(query)) == query

    def test_record_round_trip_restores_tuples(self):
        record = Record(7, {"author": ("knuth", "liskov")})
        again = decode_record(encode_record(record))
        assert again == record
        assert again.fields["author"] == ("knuth", "liskov")

    def test_rng_round_trip_resumes_stream(self):
        rng = random.Random(42)
        rng.random()
        state = encode_rng(rng)
        expected = [rng.random() for _ in range(5)]
        fresh = random.Random()
        restore_rng(fresh, state)
        assert [fresh.random() for _ in range(5)] == expected

    def test_bad_payload_raises(self):
        with pytest.raises(SerializationError):
            decode_outcome({"query": {"a": "make", "v": "honda"}})


class TestJournal:
    def write_entries(self, path, count=3):
        journal = OutcomeJournal(path)
        for step in range(1, count + 1):
            journal.record(
                step=step,
                rounds=step * 3,
                outcome=make_outcome(step),
                server_state={"rounds": step * 3},
            )
        journal.close()
        return journal

    def test_write_then_read(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = self.write_entries(path)
        assert journal.entries_written == 3
        entries = read_journal(path)
        assert [e.step for e in entries] == [1, 2, 3]
        assert entries[0].rounds == 3
        assert entries[2].outcome.new_records[0].record_id == 30

    def test_record_buffers_until_flush(self, tmp_path):
        """Group commit: entries reach the OS at flush, not per record."""
        path = tmp_path / "journal.jsonl"
        journal = OutcomeJournal(path)
        journal.record(
            step=1, rounds=3, outcome=make_outcome(1), server_state={"rounds": 3}
        )
        assert path.read_text(encoding="utf-8") == ""
        journal.flush()
        assert [e.step for e in read_journal(path)] == [1]
        journal.close()

    def test_plain_server_state_is_elided(self, tmp_path):
        """A bare round counter duplicates the entry's own ``rounds``."""
        path = tmp_path / "journal.jsonl"
        journal = OutcomeJournal(path)
        journal.record(
            step=1, rounds=3, outcome=make_outcome(1), server_state={"rounds": 3}
        )
        journal.record(
            step=2, rounds=6, outcome=make_outcome(2),
            server_state={"rounds": 6, "rng": [3, [1, 2], None]},
        )
        journal.close()
        import json as _json

        raw = [
            _json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        assert "server" not in raw[0]
        assert "server" in raw[1]
        entries = read_journal(path)
        assert entries[0].server == {"rounds": 3}  # reconstructed
        assert entries[1].server["rng"] == [3, [1, 2], None]

    def test_after_step_filters(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        self.write_entries(path)
        assert [e.step for e in read_journal(path, after_step=2)] == [3]

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_journal(tmp_path / "nope.jsonl") == []

    def test_torn_trailing_line_is_discarded(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        self.write_entries(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"step": 4, "rounds"')  # crash mid-write
        assert [e.step for e in read_journal(path)] == [1, 2, 3]

    def test_corrupt_interior_line_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        self.write_entries(path)
        lines = path.read_text().splitlines()
        lines[1] = '{"garbage": true}'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SerializationError):
            read_journal(path)

    def test_append_mode_continues(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        self.write_entries(path, count=2)
        journal = OutcomeJournal(path, append=True)
        journal.record(
            step=3, rounds=9, outcome=make_outcome(3), server_state={"rounds": 9}
        )
        journal.close()
        assert [e.step for e in read_journal(path)] == [1, 2, 3]

    def test_backoff_rng_round_trips(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        rng = random.Random(5)
        rng.random()
        with OutcomeJournal(path) as journal:
            journal.record(
                step=1,
                rounds=1,
                outcome=make_outcome(),
                server_state={"rounds": 1},
                backoff_rng=rng,
            )
        entry = read_journal(path)[0]
        fresh = random.Random()
        restore_rng(fresh, entry.backoff_rng)
        assert fresh.random() == rng.random()

    def test_entry_json_round_trip(self):
        entry = JournalEntry(
            step=4, rounds=12, outcome=make_outcome(4), server={"rounds": 12}
        )
        again = JournalEntry.from_json(entry.to_json())
        assert again.step == 4 and again.rounds == 12
        assert again.outcome.query == entry.outcome.query
        assert again.backoff_rng is None


class TestTornMultiByteTail:
    """orjson writes raw UTF-8, so a crash can tear a line mid-character."""

    @staticmethod
    def write_accented(path, count=3):
        """Journal ``count`` entries whose values carry "é", as raw UTF-8."""
        import json as _json

        lines = []
        for step in range(1, count + 1):
            outcome = QueryOutcome(
                query=Query("café", attribute="make"),
                pages_fetched=1,
                records_returned=1,
                new_records=[Record(step, {"make": ("café",)})],
                candidate_values=[AttributeValue("model", f"crème {step}")],
            )
            line = JournalEntry(
                step=step, rounds=step, outcome=outcome, server={"rounds": step}
            ).to_json()
            lines.append(
                _json.dumps(_json.loads(line), ensure_ascii=False).encode("utf-8")
            )
        path.write_bytes(b"\n".join(lines) + b"\n")
        return lines

    def test_tail_torn_inside_a_character_is_discarded(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        lines = self.write_accented(path)
        third = lines[2]
        cut = third.index("é".encode("utf-8")) + 1  # first byte of "é" only
        path.write_bytes(lines[0] + b"\n" + lines[1] + b"\n" + third[:cut])
        entries = read_journal(path)
        assert [e.step for e in entries] == [1, 2]
        assert entries[1].outcome.query.value == "café"

    def test_undecodable_last_line_with_newline_is_discarded(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        lines = self.write_accented(path)
        third = lines[2]
        cut = third.index("é".encode("utf-8")) + 1
        path.write_bytes(b"\n".join(lines[:2] + [third[:cut]]) + b"\n")
        assert [e.step for e in read_journal(path)] == [1, 2]

    def test_undecodable_interior_line_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        lines = self.write_accented(path)
        second = lines[1]
        cut = second.index("é".encode("utf-8")) + 1
        lines[1] = second[:cut] + second[cut + 1:]  # drop the second byte
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(SerializationError, match="line 2"):
            read_journal(path)
