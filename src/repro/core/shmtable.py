"""Shared-memory table payloads for multi-process experiment grids.

A grid fans independent crawls over a process pool, and every crawl
reads the *same* immutable :class:`~repro.core.table.RelationalTable`.
Under ``fork`` the table is inherited copy-on-write — but CPython
refcount updates dirty the pages holding its records, strings, and
posting lists, so each worker gradually duplicates the whole table
anyway; under ``spawn`` the table is pickled to every worker up front.

This module removes the per-worker copy: :func:`share_table` flattens a
table into **one** ``multiprocessing.shared_memory`` block —

- every distinct attribute value as (attribute index, UTF-8 slice),
- the equality and keyword inverted indexes in CSR form,
- every record as a row of value ids (original field order preserved),

— and returns a tiny picklable :class:`SharedTableHandle`.  Workers call
:meth:`SharedTableHandle.table` to attach **once per process** (a
module-level cache keyed by block name; forked children inherit the
parent's attachment and never re-map) and get a :class:`FrozenTableView`
that serves the whole read-only table surface
:class:`~repro.server.webdb.SimulatedWebDatabase` consumes straight off
numpy views over the block.  Posting reads return exactly the lists the
source table would (CSR rows preserve the sorted-ascending contract, and
conjunctions replicate the table's stable smallest-first merge), so a
grid over shared payloads is bit-identical to one over the table itself.

Result :class:`~repro.core.records.Record` objects are materialized
lazily — only records actually served on a result page are ever decoded,
and each at most once per process.  A record round-trips exactly:
the row stores its value ids in ``attribute_values()`` order, which is
attribute-contiguous in first-seen field order, so regrouping them
rebuilds ``fields`` (and therefore the decomposition order every crawl
decision hangs off) identically.

Lifecycle: the creating process owns the block and must call
:meth:`SharedTableHandle.unlink` (or use the :func:`shared_table`
context manager) after the grid completes.  Attaching processes
deregister the block from :mod:`multiprocessing.resource_tracker` —
Python 3.9+ registers *every* ``SharedMemory(name=...)`` attachment,
and a pool worker's tracker would otherwise destroy the block (or warn
about it) when the worker exits mid-suite.

Everything degrades gracefully: :func:`supported` is False where
:mod:`multiprocessing.shared_memory` cannot be imported, and callers
(see :func:`repro.experiments.harness.run_policy_suite`) fall back to
the plain closed-over table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.core.intern import intersect_sorted
from repro.core.query import AnyQuery, ConjunctiveQuery
from repro.core.records import Record
from repro.core.schema import Attribute, Schema
from repro.core.values import AttributeValue, normalize

import numpy as np

try:  # pragma: no cover
    from multiprocessing import resource_tracker, shared_memory
except Exception:  # pragma: no cover - exotic platforms
    shared_memory = None  # type: ignore[assignment]
    resource_tracker = None  # type: ignore[assignment]

#: Wire-format tag written into every block's metadata header.
FORMAT = "repro-shmtable/1"

#: Attach-once cache: block name → live view.  Forked workers inherit
#: the creator's entry and never touch the kernel again.
_ATTACHED: Dict[str, "FrozenTableView"] = {}

#: Blocks created (not merely attached) by this process, for unlink().
_CREATED: Dict[str, Any] = {}


def supported() -> bool:
    """Whether shared-memory payloads can be built on this platform."""
    return shared_memory is not None


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


class _Layout:
    """Accumulates arrays into one contiguous 8-byte-aligned layout."""

    def __init__(self) -> None:
        self.arrays: List[tuple] = []  # (key, ndarray)
        self.specs: Dict[str, List] = {}  # key → [rel_offset, dtype, len]
        self.size = 0

    def add(self, key: str, data: "np.ndarray") -> None:
        data = np.ascontiguousarray(data)
        offset = _align8(self.size)
        self.specs[key] = [offset, data.dtype.str, int(data.shape[0])]
        self.size = offset + data.nbytes
        self.arrays.append((key, data))


def _pack_strings(texts: Sequence[str]) -> tuple:
    """Concatenate UTF-8 strings into (blob, uint64 offsets)."""
    encoded = [t.encode("utf-8") for t in texts]
    offsets = np.zeros(len(encoded) + 1, dtype=np.uint64)
    total = 0
    for i, blob in enumerate(encoded):
        total += len(blob)
        offsets[i + 1] = total
    joined = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    return joined, offsets


def _pack_csr(postings: Sequence[Sequence[int]]) -> tuple:
    """Ragged posting lists → (uint64 indptr, int64 indices)."""
    indptr = np.zeros(len(postings) + 1, dtype=np.uint64)
    total = 0
    for i, row in enumerate(postings):
        total += len(row)
        indptr[i + 1] = total
    indices = np.empty(total, dtype=np.int64)
    position = 0
    for row in postings:
        indices[position : position + len(row)] = row
        position += len(row)
    return indptr, indices


def share_table(table) -> "SharedTableHandle":
    """Flatten ``table`` into one shared-memory block and return a handle.

    The handle is a few dozen bytes and pickles freely; the block holds
    the complete table (values, both inverted indexes, record rows).
    The calling process is seeded into the attach cache, so its own
    :meth:`SharedTableHandle.table` call — and, under ``fork``, every
    worker's — reuses the mapping created here.

    Raises
    ------
    RuntimeError
        If the platform lacks shared memory (callers should check
        :func:`supported` and fall back to the table).
    """
    if not supported():
        raise RuntimeError("shared-memory table payloads are unavailable")
    interner = table._value_interner
    values = interner.values()
    attr_index = {name: i for i, name in enumerate(table.schema.names)}
    layout = _Layout()
    layout.add(
        "val_attr",
        np.fromiter(
            (attr_index[v.attribute] for v in values),
            dtype=np.uint32,
            count=len(values),
        ),
    )
    val_text, val_off = _pack_strings([v.value for v in values])
    layout.add("val_text", val_text)
    layout.add("val_off", val_off)
    eq_indptr, eq_ids = _pack_csr(table._equality_postings)
    layout.add("eq_indptr", eq_indptr)
    layout.add("eq_ids", eq_ids)
    tokens = table._keyword_interner.state_dict()
    kw_text, kw_off = _pack_strings(tokens)
    layout.add("kw_text", kw_text)
    layout.add("kw_off", kw_off)
    kw_indptr, kw_ids = _pack_csr(table._keyword_postings)
    layout.add("kw_indptr", kw_indptr)
    layout.add("kw_ids", kw_ids)
    records = list(table._records.values())
    layout.add(
        "rec_ids",
        np.fromiter(
            (r.record_id for r in records), dtype=np.int64, count=len(records)
        ),
    )
    lookup = interner.lookup
    rows = [
        [lookup(pair) for pair in record.attribute_values()]
        for record in records
    ]
    rec_indptr, rec_vids = _pack_csr(rows)
    layout.add("rec_indptr", rec_indptr)
    layout.add("rec_vids", rec_vids.astype(np.uint32))
    meta = {
        "format": FORMAT,
        "name": table.name,
        "schema": [
            [a.name, a.queriable, a.displayed, a.multivalued]
            for a in table.schema
        ],
        "n_records": len(records),
        "n_values": len(values),
        "n_tokens": len(tokens),
        "arrays": layout.specs,
    }
    meta_blob = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    base = _align8(16 + len(meta_blob))
    total = max(base + layout.size, 1)
    shm = shared_memory.SharedMemory(create=True, size=total)
    buffer = shm.buf
    buffer[0:8] = len(meta_blob).to_bytes(8, "little")
    buffer[8:16] = base.to_bytes(8, "little")
    buffer[16 : 16 + len(meta_blob)] = meta_blob
    for key, data in layout.arrays:
        offset = base + layout.specs[key][0]
        buffer[offset : offset + data.nbytes] = data.tobytes()
    handle = SharedTableHandle(shm_name=shm.name, nbytes=total)
    _CREATED[shm.name] = shm
    _ATTACHED[shm.name] = FrozenTableView(shm, meta, base)
    return handle


def _attach(name: str) -> "FrozenTableView":
    view = _ATTACHED.get(name)
    if view is not None:
        return view
    if not supported():  # pragma: no cover - guarded by share_table
        raise RuntimeError("shared-memory table payloads are unavailable")
    shm = shared_memory.SharedMemory(name=name)
    # SharedMemory(name=...) registers the *attachment* with the
    # resource tracker (bpo-39959); if left registered, this process's
    # tracker destroys the creator's block when the process exits.
    if resource_tracker is not None:  # pragma: no branch
        try:
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker-less platforms
            pass
    meta_len = int.from_bytes(bytes(shm.buf[0:8]), "little")
    base = int.from_bytes(bytes(shm.buf[8:16]), "little")
    meta = json.loads(bytes(shm.buf[16 : 16 + meta_len]).decode("utf-8"))
    if meta.get("format") != FORMAT:
        raise RuntimeError(f"unexpected shared table format: {meta.get('format')!r}")
    view = FrozenTableView(shm, meta, base)
    _ATTACHED[name] = view
    return view


@dataclass(frozen=True)
class SharedTableHandle:
    """Picklable pointer to a shared table block.

    Ship it to workers (it rides inside the grid payload); call
    :meth:`table` there to get the attach-once read-only view.  The
    creating process calls :meth:`unlink` when the grid is done.
    """

    shm_name: str
    nbytes: int

    def table(self) -> "FrozenTableView":
        """Attach (once per process) and return the frozen view."""
        return _attach(self.shm_name)

    def unlink(self) -> None:
        """Destroy the block.  Only the creator should call this."""
        view = _ATTACHED.pop(self.shm_name, None)
        shm = _CREATED.pop(self.shm_name, None)
        if shm is None and view is not None:
            shm = view._shm
        if view is not None:
            view._release()
        if shm is not None:
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            shm.close()


class shared_table:
    """Context manager: ``with shared_table(table) as handle: ...``.

    Unlinks the block on exit, however the grid run ends.
    """

    def __init__(self, table) -> None:
        self._table = table
        self.handle: Optional[SharedTableHandle] = None

    def __enter__(self) -> SharedTableHandle:
        self.handle = share_table(self._table)
        return self.handle

    def __exit__(self, *exc) -> None:
        if self.handle is not None:
            self.handle.unlink()


class FrozenTableView:
    """Read-only :class:`~repro.core.table.RelationalTable` stand-in
    backed by a shared-memory block.

    Implements the full surface the simulated server and the experiment
    harness read — matching, counting, projection, ground-truth lookups
    — with identical results: posting reads come back in the same
    sorted-ascending order, conjunctions use the same stable
    smallest-first merge, and projected records are field-for-field
    equal to the originals.  Anything that would mutate the table
    (``insert``) is deliberately absent.

    Strings and records decode lazily: interned-id lookup maps build on
    first use, and each record materializes at most once per process.
    """

    def __init__(self, shm, meta: dict, base: int) -> None:
        self._shm = shm
        self._meta = meta
        self.name = meta["name"]
        self.schema = Schema(
            tuple(
                Attribute(name, queriable, displayed, multivalued)
                for name, queriable, displayed, multivalued in meta["schema"]
            )
        )
        self._attr_names = self.schema.names
        arrays = meta["arrays"]
        buffer = shm.buf

        def view(key: str) -> "np.ndarray":
            offset, dtype, length = arrays[key]
            return np.frombuffer(
                buffer, dtype=np.dtype(dtype), count=length, offset=base + offset
            )

        self._val_attr = view("val_attr")
        self._val_text = view("val_text")
        self._val_off = view("val_off")
        self._eq_indptr = view("eq_indptr")
        self._eq_ids = view("eq_ids")
        self._kw_text = view("kw_text")
        self._kw_off = view("kw_off")
        self._kw_indptr = view("kw_indptr")
        self._kw_ids = view("kw_ids")
        self._rec_ids = view("rec_ids")
        self._rec_indptr = view("rec_indptr")
        self._rec_vids = view("rec_vids")
        self._n_records = meta["n_records"]
        self._n_values = meta["n_values"]
        self._n_tokens = meta["n_tokens"]
        # Lazy caches (per attached process, grow with actual use).
        self._value_ids: Optional[Dict[AttributeValue, int]] = None
        self._token_ids: Optional[Dict[str, int]] = None
        self._row_of: Optional[Dict[int, int]] = None
        self._record_cache: Dict[int, Record] = {}

    # ------------------------------------------------------------------
    # Decoding helpers
    # ------------------------------------------------------------------
    def _text(self, blob, offsets, index: int) -> str:
        start, stop = int(offsets[index]), int(offsets[index + 1])
        return bytes(blob[start:stop]).decode("utf-8")

    def _decode_value(self, vid: int) -> AttributeValue:
        return AttributeValue(
            self._attr_names[self._val_attr[vid]],
            self._text(self._val_text, self._val_off, vid),
        )

    def _release(self) -> None:
        """Drop every numpy view so the mapping can close."""
        for key in (
            "_val_attr", "_val_text", "_val_off",
            "_eq_indptr", "_eq_ids",
            "_kw_text", "_kw_off", "_kw_indptr", "_kw_ids",
            "_rec_ids", "_rec_indptr", "_rec_vids",
        ):
            setattr(self, key, None)

    # ------------------------------------------------------------------
    # Introspection (RelationalTable surface)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n_records

    def __contains__(self, record_id: int) -> bool:
        return record_id in self._rows()

    def __iter__(self) -> Iterator[Record]:
        for record_id in self._rec_ids.tolist():
            yield self.get(record_id)

    def _rows(self) -> Dict[int, int]:
        rows = self._row_of
        if rows is None:
            rows = self._row_of = {
                record_id: row
                for row, record_id in enumerate(self._rec_ids.tolist())
            }
        return rows

    def get(self, record_id: int) -> Record:
        record = self._record_cache.get(record_id)
        if record is None:
            row = self._rows()[record_id]
            start, stop = int(self._rec_indptr[row]), int(self._rec_indptr[row + 1])
            fields: Dict[str, List[str]] = {}
            for vid in self._rec_vids[start:stop].tolist():
                pair = self._decode_value(vid)
                fields.setdefault(pair.attribute, []).append(pair.value)
            record = Record(
                record_id, {a: tuple(vs) for a, vs in fields.items()}
            )
            self._record_cache[record_id] = record
        return record

    def record_ids(self) -> List[int]:
        return sorted(self._rec_ids.tolist())

    def distinct_values(self, attribute: Optional[str] = None) -> List[AttributeValue]:
        values = [self._decode_value(vid) for vid in range(self._n_values)]
        if attribute is None:
            return sorted(values)
        key = attribute.strip().lower()
        return sorted(p for p in values if p.attribute == key)

    def num_distinct_values(self) -> int:
        return self._n_values

    def frequency(self, pair: AttributeValue) -> int:
        vid = self.value_id(pair)
        if vid is None:
            return 0
        return int(self._eq_indptr[vid + 1] - self._eq_indptr[vid])

    # ------------------------------------------------------------------
    # Interned ids
    # ------------------------------------------------------------------
    def value_id(self, pair: AttributeValue) -> Optional[int]:
        ids = self._value_ids
        if ids is None:
            ids = self._value_ids = {
                self._decode_value(vid): vid for vid in range(self._n_values)
            }
        return ids.get(pair)

    def keyword_id(self, value: str) -> Optional[int]:
        ids = self._token_ids
        if ids is None:
            ids = self._token_ids = {
                self._text(self._kw_text, self._kw_off, tid): tid
                for tid in range(self._n_tokens)
            }
        return ids.get(normalize(value))

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def _eq_postings(self, vid: int) -> List[int]:
        start, stop = int(self._eq_indptr[vid]), int(self._eq_indptr[vid + 1])
        return self._eq_ids[start:stop].tolist()

    def match_equality(self, attribute: str, value: str) -> List[int]:
        vid = self.value_id(AttributeValue(attribute, value))
        return [] if vid is None else self._eq_postings(vid)

    def match_keyword(self, value: str) -> List[int]:
        tid = self.keyword_id(value)
        if tid is None:
            return []
        start, stop = int(self._kw_indptr[tid]), int(self._kw_indptr[tid + 1])
        return self._kw_ids[start:stop].tolist()

    def match_conjunctive(self, predicates: Sequence[AttributeValue]) -> List[int]:
        postings = []
        for pair in predicates:
            vid = self.value_id(pair)
            if vid is None:
                return []
            postings.append(self._eq_postings(vid))
        if not postings:
            return []
        # Stable smallest-first merge — same tie order as the table's.
        postings.sort(key=len)
        result: Sequence[int] = postings[0]
        for posting in postings[1:]:
            result = intersect_sorted(result, posting)
            if not result:
                break
        return list(result)

    def match(self, query: AnyQuery) -> List[int]:
        if isinstance(query, ConjunctiveQuery):
            return self.match_conjunctive(query.predicates)
        if query.is_keyword:
            return self.match_keyword(query.value)
        assert query.attribute is not None
        return self.match_equality(query.attribute, query.value)

    def count(self, query: AnyQuery) -> int:
        if isinstance(query, ConjunctiveQuery):
            return len(self.match_conjunctive(query.predicates))
        if query.is_keyword:
            tid = self.keyword_id(query.value)
            if tid is None:
                return 0
            return int(self._kw_indptr[tid + 1] - self._kw_indptr[tid])
        vid = self.value_id(query.as_attribute_value())
        if vid is None:
            return 0
        return int(self._eq_indptr[vid + 1] - self._eq_indptr[vid])

    # ------------------------------------------------------------------
    # Projection
    # ------------------------------------------------------------------
    def project(self, record_ids: Sequence[int]) -> List[Record]:
        displayed = set(self.schema.displayed)
        projected = []
        for record_id in record_ids:
            record = self.get(record_id)
            if len(displayed) == len(self.schema):
                projected.append(record)
                continue
            fields = {
                attribute: values
                for attribute, values in record.fields.items()
                if attribute in displayed
            }
            projected.append(Record(record.record_id, fields))
        return projected
