"""Unit tests for communication accounting."""

from repro.core import Query
from repro.server import CommunicationLog


def test_rounds_increment():
    log = CommunicationLog()
    log.record()
    log.record()
    assert log.rounds == 2


# ----------------------------------------------------------------------
# Per-round wall times: kept only when the transport passes one (the
# network lane does; the in-process lane has no wire), and never part
# of the canonical deterministic state.
# ----------------------------------------------------------------------
def test_wall_times_off_by_default(books_server):
    books_server.submit(Query.equality("publisher", "orbit"))
    assert books_server.log.timed_rounds == 0
    assert books_server.log.total_wall_time == 0.0


def test_wall_times_recorded_when_enabled():
    log = CommunicationLog()
    log.record(wall_time=0.25)
    log.record(wall_time=0.5)
    log.record()  # no timing supplied
    assert log.rounds == 3
    assert log.timed_rounds == 2
    assert log.total_wall_time == 0.75


def test_wall_times_never_reach_canonical_runtime_state(books_server):
    """webdb runtime snapshots carry rounds only — wall times are
    telemetry, not canonical crawl state."""
    books_server.log.record(wall_time=0.25)
    state = books_server.runtime_state()
    assert state == {"rounds": 1}
