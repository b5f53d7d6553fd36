"""Frontier data structures — the paper's ``L_to-query``.

Each naive policy of Section 3.1 is literally a choice of container for
the to-query list: a queue (breadth-first), a stack (depth-first), or a
bag sampled uniformly (random).  The greedy policies instead need a
priority structure re-scored as the local graph grows.  This module
provides all of them behind one small protocol: ``push`` candidates,
``pop`` the next, never yield the same value twice.
"""

from __future__ import annotations

import heapq
import random
from abc import ABC, abstractmethod
from collections import deque
from typing import Any, Callable, Iterable, Optional

from repro.core.values import AttributeValue

ScoreFn = Callable[[AttributeValue], float]

#: Item codecs for checkpoint serialization.  Frontiers normally hold
#: :class:`AttributeValue` items, but the clique selectors store tuples
#: of them, so the state API takes the codec as a parameter.
ItemEncoder = Callable[[Any], Any]
ItemDecoder = Callable[[Any], Any]


def _default_encode(item: AttributeValue) -> list:
    return [item.attribute, item.value]


def _default_decode(payload) -> AttributeValue:
    return AttributeValue(payload[0], payload[1])


class Frontier(ABC):
    """A set-like container of candidate attribute values.

    Implementations guarantee that each pushed value is popped at most
    once and that re-pushing a value already seen (pending or popped) is
    a no-op — a crawler must never issue the same query twice.
    """

    def __init__(self) -> None:
        self._seen: set[AttributeValue] = set()
        self._pending = 0

    def push(self, value: AttributeValue) -> bool:
        """Add a candidate; returns False if it was already known."""
        if value in self._seen:
            return False
        self._seen.add(value)
        self._pending += 1
        self._insert(value)
        return True

    def push_all(self, values: Iterable[AttributeValue]) -> int:
        return sum(1 for value in values if self.push(value))

    def pop(self) -> Optional[AttributeValue]:
        """Remove and return the next candidate, or None when empty."""
        if self._pending == 0:
            return None
        value = self._remove()
        self._pending -= 1
        return value

    def __len__(self) -> int:
        return self._pending

    def __bool__(self) -> bool:
        return self._pending > 0

    def __contains__(self, value: AttributeValue) -> bool:
        return value in self._seen

    @abstractmethod
    def _insert(self, value: AttributeValue) -> None:
        """Store a value known to be new."""

    @abstractmethod
    def _remove(self) -> AttributeValue:
        """Remove the container's next value (container is non-empty)."""

    # ------------------------------------------------------------------
    # Checkpoint state (see repro.runtime)
    # ------------------------------------------------------------------
    def state_dict(self, encode: Optional[ItemEncoder] = None) -> dict:
        """Full frontier state as a JSON-safe dict.

        ``seen`` is a set (order-irrelevant) and is stored sorted so
        checkpoint bytes are deterministic; the container payload keeps
        whatever order the concrete frontier depends on.
        """
        encode = encode or _default_encode
        return {
            "seen": [encode(item) for item in sorted(self._seen)],
            "pending": self._pending,
            "container": self._container_state(encode),
        }

    def load_state(
        self, state: dict, decode: Optional[ItemDecoder] = None
    ) -> None:
        """Restore a state captured by :meth:`state_dict` in place."""
        decode = decode or _default_decode
        self._seen = {decode(item) for item in state["seen"]}
        self._pending = state["pending"]
        self._load_container(state["container"], decode)

    @abstractmethod
    def _container_state(self, encode: ItemEncoder):
        """Serialize the concrete container (order preserved)."""

    @abstractmethod
    def _load_container(self, payload, decode: ItemDecoder) -> None:
        """Restore the concrete container from its serialized form."""


class FifoFrontier(Frontier):
    """Queue frontier — breadth-first selection."""

    def __init__(self) -> None:
        super().__init__()
        self._queue: deque[AttributeValue] = deque()

    def _insert(self, value: AttributeValue) -> None:
        self._queue.append(value)

    def _remove(self) -> AttributeValue:
        return self._queue.popleft()

    def _container_state(self, encode: ItemEncoder):
        return [encode(item) for item in self._queue]

    def _load_container(self, payload, decode: ItemDecoder) -> None:
        self._queue = deque(decode(item) for item in payload)


class LifoFrontier(Frontier):
    """Stack frontier — depth-first selection."""

    def __init__(self) -> None:
        super().__init__()
        self._stack: list[AttributeValue] = []

    def _insert(self, value: AttributeValue) -> None:
        self._stack.append(value)

    def _remove(self) -> AttributeValue:
        return self._stack.pop()

    def _container_state(self, encode: ItemEncoder):
        return [encode(item) for item in self._stack]

    def _load_container(self, payload, decode: ItemDecoder) -> None:
        self._stack = [decode(item) for item in payload]


class RandomFrontier(Frontier):
    """Uniform-random frontier (swap-with-last removal, O(1) amortized).

    The RNG is required, not defaulted: an unseeded stream would break
    the bit-identical-replay guarantee the durable runtime makes for
    every policy.  Pass the engine's policy RNG (``context.rng``) — the
    engine checkpoints that stream, so a resumed random crawl draws
    exactly where the original left off.
    """

    def __init__(self, rng: random.Random) -> None:
        if not isinstance(rng, random.Random):
            raise TypeError(
                "RandomFrontier requires an explicit random.Random (the "
                "engine's seeded stream); an unseeded default would break "
                "bit-identical replay"
            )
        super().__init__()
        self._items: list[AttributeValue] = []
        self._rng = rng

    def _insert(self, value: AttributeValue) -> None:
        self._items.append(value)

    def _remove(self) -> AttributeValue:
        index = self._rng.randrange(len(self._items))
        self._items[index], self._items[-1] = self._items[-1], self._items[index]
        return self._items.pop()

    def _container_state(self, encode: ItemEncoder):
        # Item order matters: removal draws an *index*, so the restored
        # list must match position for position (the RNG stream itself
        # is checkpointed by the engine).
        return [encode(item) for item in self._items]

    def _load_container(self, payload, decode: ItemDecoder) -> None:
        self._items = [decode(item) for item in payload]


class InternedPriorityFrontier(Frontier):
    """Id-native, incrementally rescored :class:`PriorityFrontier`.

    Same contract and same *serialized state* as
    :class:`PriorityFrontier`, but every internal structure — seen set,
    pending set, heap entries — holds dense int ids instead of
    :class:`AttributeValue` objects, and scoring goes through an
    id-indexed function (e.g. ``LocalDatabase.degree_id``).  A value is
    hashed exactly once, at :meth:`push` time, to intern it; every
    subsequent refresh/pop touch is integer work.

    **Incremental rescoring.**  :meth:`refresh_id` no longer scores and
    pushes eagerly; it only marks the id *dirty* (insertion-ordered,
    deduplicated).  The dirty set drains at the next :meth:`pop`: each
    dirty id is rescored and re-pushed **only if its score actually
    changed** since its last push.  Both halves preserve the eager
    frontier's pop order exactly:

    - *Deferral* keeps the push sequence: between a refresh and the next
      pop nothing else pushes, so draining in mark order assigns ticks
      in the same relative order the eager pushes would have.
    - *Skipping an unchanged push* is unobservable: among duplicate
      entries of one id at equal score the earliest tick pops first, so
      the redundant later push never wins — for this id or any tie.

    The invariant callers must keep (and the shipped greedy policies do
    keep, by refreshing every id an outcome touched): **every score
    change is announced via refresh before the next pop**.  A score that
    grew without a refresh pops at the rank of its last push; rescoring
    the head at pop time could not change which value pops (see
    :meth:`pop`).  As an escape hatch, ``full_rescore_every=N`` rescans
    the *entire* pending set on every Nth flush (dirty ids first, in
    mark order, so the push order is unchanged when the invariant
    holds); the differential tests run incremental-vs-
    ``full_rescore_every=1`` step-history identity.

    Determinism: heap entries order by ``(-score, tick)`` and ticks are
    unique, so the third tuple element is never compared — swapping the
    value for its id cannot change pop order, and the checkpoint payload
    (which encodes the values, not the ids) matches the value-keyed
    frontier's schema, plus the dirty ids (in mark order) and the
    ``stats`` counters.  A checkpoint therefore flushes nothing: the
    resumed frontier drains the same dirty set at the same pop as the
    uninterrupted one, so observing a crawl perturbs neither its pops
    nor its counters.

    Parameters
    ----------
    score_id_fn:
        Score by id.
    intern_fn:
        ``AttributeValue -> id``, assigning ids to new values (use
        ``LocalDatabase.intern_value`` so statistic arrays grow too).
    lookup_fn:
        ``AttributeValue -> Optional[id]`` without assigning (refresh
        must not intern values it will ignore).
    value_fn:
        ``id -> AttributeValue`` (the interner's list index).
    full_rescore_every:
        Rescore every pending id on each Nth flush (0 = never).
    """

    def __init__(
        self,
        score_id_fn: Callable[[int], float],
        intern_fn: Callable[[AttributeValue], int],
        lookup_fn: Callable[[AttributeValue], Optional[int]],
        value_fn: Callable[[int], AttributeValue],
        full_rescore_every: int = 0,
    ) -> None:
        super().__init__()
        self._score_id = score_id_fn
        self._intern = intern_fn
        self._lookup = lookup_fn
        self._value_of = value_fn
        self._full_rescore_every = full_rescore_every
        self._heap: list[tuple[float, int, int]] = []
        self._tick = 0
        self._seen_ids: set[int] = set()
        self._pending_ids: set[int] = set()
        #: Insertion-ordered dirty ids awaiting rescore, with a set mirror
        #: for O(1) dedup.
        self._dirty: list[int] = []
        self._dirty_set: set[int] = set()
        #: Last score pushed per pending id — the flush's "did it change"
        #: test.  Entries leave when the id pops.
        self._last_pushed: dict[int, float] = {}
        self._flushes = 0
        #: Monotonic counters surfaced as repro.metrics telemetry:
        #: ids marked dirty, ids actually rescored, flushes that
        #: rescored at least one id.
        self.stats = {"dirty_total": 0, "rescored_total": 0, "flushes": 0}

    # The base class's _seen/_insert/_remove machinery is value-keyed;
    # this frontier overrides the public surface wholesale instead.
    def push(self, value: AttributeValue) -> bool:
        return self.push_id(self._intern(value))

    def push_id(self, vid: int) -> bool:
        """Id fast path of :meth:`push` for callers already holding ids."""
        if vid in self._seen_ids:
            return False
        self._seen_ids.add(vid)
        self._pending += 1
        self._pending_ids.add(vid)
        score = self._score_id(vid)
        self._last_pushed[vid] = score
        self._tick += 1
        heapq.heappush(self._heap, (-score, self._tick, vid))
        return True

    def _flush(self) -> None:
        """Drain the dirty set into the heap (see class docstring)."""
        self._flushes += 1
        dirty = self._dirty
        every = self._full_rescore_every
        if every > 0 and self._flushes % every == 0:
            # Escape hatch: dirty ids first in mark order (keeping the
            # incremental push order), then the untouched remainder.
            ids = dirty + sorted(self._pending_ids - self._dirty_set)
        else:
            ids = dirty
        if not ids:
            return
        stats = self.stats
        stats["flushes"] += 1
        stats["dirty_total"] += len(dirty)
        stats["rescored_total"] += len(ids)
        score_id = self._score_id
        last = self._last_pushed
        heap = self._heap
        pending = self._pending_ids
        for vid in ids:
            score = score_id(vid)
            if vid not in pending or score == last.get(vid):
                continue
            last[vid] = score
            self._tick += 1
            heapq.heappush(heap, (-score, self._tick, vid))
        self._dirty = []
        self._dirty_set.clear()

    def pop(self) -> Optional[AttributeValue]:
        if self._pending == 0:
            return None
        if self._dirty or self._full_rescore_every:
            self._flush()
        # The head is returned without rescoring it: had its score grown
        # unannounced, re-pushing it would still put it strictly below
        # every other entry, so the same value would pop.
        pending = self._pending_ids
        heap = self._heap
        while True:
            _neg_score, _tie, vid = heapq.heappop(heap)
            if vid not in pending:
                continue  # out-of-date duplicate of an already-popped value
            pending.discard(vid)
            self._last_pushed.pop(vid, None)
            self._pending -= 1
            return self._value_of(vid)

    def refresh(self, value: AttributeValue) -> None:
        """Record that ``value``'s score may have changed (no-op if not pending)."""
        vid = self._lookup(value)
        if vid is not None:
            self.refresh_id(vid)

    def refresh_all(self, values: Iterable[AttributeValue]) -> None:
        for value in values:
            self.refresh(value)

    def refresh_id(self, vid: int) -> None:
        """Id fast path of :meth:`refresh`: mark dirty, rescore at next pop."""
        if vid in self._pending_ids and vid not in self._dirty_set:
            self._dirty_set.add(vid)
            self._dirty.append(vid)

    def __contains__(self, value: AttributeValue) -> bool:
        vid = self._lookup(value)
        return vid is not None and vid in self._seen_ids

    def _insert(self, value: AttributeValue) -> None:  # pragma: no cover
        raise AssertionError("push() is overridden; _insert is unreachable")

    def _remove(self) -> AttributeValue:  # pragma: no cover
        raise AssertionError("pop() is overridden; _remove is unreachable")

    def _container_state(self, encode: ItemEncoder):  # pragma: no cover
        raise AssertionError("state_dict() is overridden")

    def _load_container(self, payload, decode: ItemDecoder) -> None:  # pragma: no cover
        raise AssertionError("load_state() is overridden")

    # ------------------------------------------------------------------
    # Checkpoint state — same payload as PriorityFrontier, value-encoded
    # ------------------------------------------------------------------
    def state_dict(self, encode: Optional[ItemEncoder] = None) -> dict:
        encode = encode or _default_encode
        value_of = self._value_of
        return {
            "seen": [
                encode(item)
                for item in sorted(value_of(vid) for vid in self._seen_ids)
            ],
            "pending": self._pending,
            "container": {
                "heap": [
                    [neg_score, tie, encode(value_of(vid))]
                    for neg_score, tie, vid in self._heap
                ],
                "tick": self._tick,
                "pending": [
                    encode(item)
                    for item in sorted(
                        value_of(vid) for vid in self._pending_ids
                    )
                ],
            },
            # Not drained here: the next pop flushes it, resumed or not.
            "dirty": [encode(value_of(vid)) for vid in self._dirty],
            # Lifetime counters, so a resumed crawl's telemetry keeps
            # counting from here instead of from zero.
            "stats": dict(self.stats),
        }

    def load_state(
        self, state: dict, decode: Optional[ItemDecoder] = None
    ) -> None:
        decode = decode or _default_decode
        intern = self._intern
        self._seen_ids = {intern(decode(item)) for item in state["seen"]}
        self._pending = state["pending"]
        container = state["container"]
        # Heap order depends only on (neg_score, tick) — ticks are unique
        # — so re-interning the values preserves a valid heap verbatim.
        self._heap = [
            (neg_score, tie, intern(decode(value)))
            for neg_score, tie, value in container["heap"]
        ]
        self._tick = container["tick"]
        self._pending_ids = {intern(decode(value)) for value in container["pending"]}
        # The pushed-score map is not serialized (the payload stays
        # schema-compatible with PriorityFrontier): rebuild it as each
        # pending id's best heap entry.  Scores only grow between pushes
        # for the shipped policies, so "best" is "last pushed".
        self._dirty = [intern(decode(value)) for value in state.get("dirty", ())]
        self._dirty_set = set(self._dirty)
        last: dict[int, float] = {}
        pending = self._pending_ids
        for neg_score, _tie, vid in self._heap:
            if vid in pending:
                score = -neg_score
                prev = last.get(vid)
                if prev is None or score > prev:
                    last[vid] = score
        self._last_pushed = last
        self._flushes = 0
        self.stats.update(state.get("stats", {}))


class PriorityFrontier(Frontier):
    """Max-priority frontier over externally changing scores.

    Scores (e.g. local-graph degrees) grow while a value waits in the
    frontier, and a max-heap's lazy pop-time re-scoring cannot catch
    that: a stale entry *underestimates* its value and hides below the
    top.  Callers therefore :meth:`refresh` values whose scores changed
    (the greedy policies do so for every value touched by a query's
    results); refreshing pushes a duplicate entry with the new score and
    pops discard out-of-date duplicates.  Ties break FIFO among entries
    pushed at the same score for determinism.
    """

    def __init__(self, score_fn: ScoreFn) -> None:
        super().__init__()
        self._score_fn = score_fn
        self._heap: list[tuple[float, int, AttributeValue]] = []
        # A plain int tick (not itertools.count) so the FIFO tie-break
        # stream survives checkpoint/restore exactly.
        self._tick = 0
        self._pending_set: set[AttributeValue] = set()

    def _next_tick(self) -> int:
        self._tick += 1
        return self._tick

    def refresh(self, value: AttributeValue) -> None:
        """Record that ``value``'s score may have changed.

        No-op for values not pending (unknown or already popped).
        """
        if value in self._pending_set:
            score = self._score_fn(value)
            heapq.heappush(self._heap, (-score, self._next_tick(), value))

    def refresh_all(self, values: Iterable[AttributeValue]) -> None:
        for value in values:
            self.refresh(value)

    def _insert(self, value: AttributeValue) -> None:
        self._pending_set.add(value)
        score = self._score_fn(value)
        heapq.heappush(self._heap, (-score, self._next_tick(), value))

    def _remove(self) -> AttributeValue:
        # No rescoring of the head: see InternedPriorityFrontier.pop.
        while True:
            _neg_score, _tie, value = heapq.heappop(self._heap)
            if value not in self._pending_set:
                continue  # out-of-date duplicate of an already-popped value
            self._pending_set.discard(value)
            return value

    def _container_state(self, encode: ItemEncoder):
        # The heap list is stored verbatim: any snapshot of a valid heap
        # is itself a valid heap, so no re-heapify is needed on load.
        return {
            "heap": [
                [neg_score, tie, encode(value)]
                for neg_score, tie, value in self._heap
            ],
            "tick": self._tick,
            "pending": [encode(value) for value in sorted(self._pending_set)],
        }

    def _load_container(self, payload, decode: ItemDecoder) -> None:
        self._heap = [
            (neg_score, tie, decode(value))
            for neg_score, tie, value in payload["heap"]
        ]
        self._tick = payload["tick"]
        self._pending_set = {decode(value) for value in payload["pending"]}
