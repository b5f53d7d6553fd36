"""The write-ahead outcome journal — crash recovery between snapshots.

Full-state snapshots are expensive (engine + selector state), so the
runtime writes them rarely; the journal carries recovery.  After every
completed query–harvest–decompose step, one JSON line records the
step's outcome, the server's post-step runtime state, and the backoff
RNG position.  Recovery loads the last snapshot and *replays* the
journaled steps after it through
:meth:`~repro.crawler.engine.CrawlerEngine.replay_outcome` — the
selector re-proposes exactly the queries the live crawl issued
(consuming the same RNG draws), and the journaled outcomes are folded
in without contacting the server.

Durability is group-committed: :meth:`OutcomeJournal.record` buffers,
and the runtime calls :meth:`OutcomeJournal.flush` at every checkpoint
marker (and on suspension/close).  A hard crash therefore loses at most
the steps since the last marker — and loses them *safely*: resume
replays the journal to the last durable step and simply re-executes the
lost steps live, which on fixed seeds reproduces them bit for bit.  A
torn trailing line (the crash hit mid-write) is detected and discarded
by :func:`read_journal`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

from repro.core.query import ConjunctiveQuery
from repro.core.values import AttributeValue
from repro.crawler.prober import QueryOutcome
from repro.runtime.serialize import (
    SerializationError,
    decode_query,
    decode_record,
    encode_rng,
)

try:  # pragma: no cover - environment-dependent accelerator
    import orjson as _fastjson  # writes the same JSON, several× faster
except ImportError:  # pragma: no cover
    _fastjson = None

PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# Outcome codec
# ----------------------------------------------------------------------
def encode_outcome(outcome: QueryOutcome) -> dict:
    """Everything :class:`QueryOutcome` carries, JSON-safe.

    Full records are journaled (not just ids): replay must rebuild
    ``DB_local`` and the local graph without re-contacting the server.
    This codec runs once per crawl step, so it is deliberately lean:
    records share their (immutable) field mappings, candidate values
    are a flat ``[attr, value, attr, value, ...]`` list, and the
    usually-false outcome flags are elided.
    """
    query = outcome.query
    payload = {
        "query": (
            {"cq": [[p.attribute, p.value] for p in query.predicates]}
            if isinstance(query, ConjunctiveQuery)
            else {"a": query.attribute, "v": query.value}
        ),
        "pages": outcome.pages_fetched,
        "returned": outcome.records_returned,
        "new_records": [
            {"id": r.record_id, "f": r.fields} for r in outcome.new_records
        ],
        "candidates": [
            part
            for value in outcome.candidate_values
            for part in (value.attribute, value.value)
        ],
        "total_matches": outcome.total_matches,
        "accessible": outcome.accessible_matches,
    }
    if outcome.aborted:
        payload["aborted"] = True
    if outcome.rejected:
        payload["rejected"] = True
    if outcome.failed:
        payload["failed"] = True
    return payload


def decode_outcome(payload: dict) -> QueryOutcome:
    try:
        flat = payload["candidates"]
        return QueryOutcome(
            query=decode_query(payload["query"]),
            pages_fetched=payload["pages"],
            records_returned=payload["returned"],
            new_records=[decode_record(r) for r in payload["new_records"]],
            candidate_values=[
                AttributeValue(flat[i], flat[i + 1])
                for i in range(0, len(flat), 2)
            ],
            total_matches=payload["total_matches"],
            accessible_matches=payload["accessible"],
            aborted=payload.get("aborted", False),
            rejected=payload.get("rejected", False),
            failed=payload.get("failed", False),
        )
    except KeyError as error:
        raise SerializationError(
            f"not an outcome payload: {payload!r}"
        ) from error


# ----------------------------------------------------------------------
# Journal entries
# ----------------------------------------------------------------------
@dataclass
class JournalEntry:
    """One completed crawl step as recorded on disk.

    ``rounds`` is the server's round counter *after* the step (what the
    engine's history recorded); ``server`` is the server's
    ``runtime_state()`` at the same instant; ``backoff_rng`` the
    engine's retry-jitter RNG state (present only when retries are
    enabled — the stream is untouched otherwise).
    """

    step: int
    rounds: int
    outcome: QueryOutcome
    server: dict
    backoff_rng: Optional[list] = None

    def to_json(self) -> str:
        payload = {
            "step": self.step,
            "rounds": self.rounds,
            "outcome": encode_outcome(self.outcome),
        }
        # A plain server's runtime state is just its round counter,
        # which the entry already carries — elide the duplicate.
        if self.server != {"rounds": self.rounds}:
            payload["server"] = self.server
        if self.backoff_rng is not None:
            payload["backoff_rng"] = self.backoff_rng
        return json.dumps(payload, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "JournalEntry":
        payload = json.loads(line)
        return cls(
            step=payload["step"],
            rounds=payload["rounds"],
            outcome=decode_outcome(payload["outcome"]),
            server=payload.get("server", {"rounds": payload["rounds"]}),
            backoff_rng=payload.get("backoff_rng"),
        )


class OutcomeJournal:
    """Append-only, group-committed writer of :class:`JournalEntry`.

    :meth:`record` buffers; entries reach the OS on :meth:`flush`
    (called by the runtime at checkpoint markers) and on :meth:`close`.
    """

    def __init__(self, path: PathLike, append: bool = False) -> None:
        self.path = Path(path)
        self._handle = open(self.path, "ab" if append else "wb")
        self.entries_written = 0

    def record(
        self,
        step: int,
        rounds: int,
        outcome: QueryOutcome,
        server_state: dict,
        backoff_rng=None,
    ) -> None:
        # The crawl loop calls this once per step: build the line
        # directly rather than through a JournalEntry instance.
        payload = {
            "step": step,
            "rounds": rounds,
            "outcome": encode_outcome(outcome),
        }
        if server_state != {"rounds": rounds}:
            payload["server"] = server_state
        if backoff_rng is not None:
            payload["backoff_rng"] = encode_rng(backoff_rng)
        if _fastjson is not None:
            line = _fastjson.dumps(payload)
        else:
            line = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        self._handle.write(line)
        self._handle.write(b"\n")
        self.entries_written += 1

    def flush(self) -> None:
        """Push buffered entries to the OS — the durability boundary
        this simulation aims for."""
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "OutcomeJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_journal(path: PathLike, after_step: int = -1) -> List[JournalEntry]:
    """Load journal entries with ``step > after_step``, crash-tolerantly.

    A torn final line (no trailing newline, invalid UTF-8 or invalid
    JSON) is treated as the in-flight write the crash interrupted and
    discarded; a malformed line anywhere *else* is corruption and
    raises.  Lines are decoded one at a time, so a write torn inside a
    multi-byte character spoils only its own line.
    """
    path = Path(path)
    if not path.exists():
        return []
    lines = path.read_bytes().split(b"\n")
    # A well-formed journal ends with "\n", so the final split element
    # is empty; anything else is a torn trailing write.
    torn = lines.pop() if lines else b""
    entries: List[JournalEntry] = []
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            entry = JournalEntry.from_json(line.decode("utf-8"))
        except (
            UnicodeDecodeError,
            json.JSONDecodeError,
            KeyError,
            SerializationError,
        ) as error:
            if index == len(lines) - 1 and not torn:
                # Torn write that still got its newline out.
                break
            raise SerializationError(
                f"{path}: corrupt journal line {index + 1} ({error})"
            ) from error
        if entry.step > after_step:
            entries.append(entry)
    return entries
