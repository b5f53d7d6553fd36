"""The MMMI batch kernel over the interned statistic columns.

MMMI's scalar recompute spends most of its time in per-pair
Python-level dict/array reads.  :func:`mmmi_best_ratios` lifts that loop
onto numpy views built **directly on the live** ``array('I')``
frequency column of :class:`~repro.crawler.localdb.LocalDatabase` (no
copies of the statistics, only of the gathered results).  For every
candidate it computes the **maximum co-occurrence ratio**
``joint·n / (f_cand·f_q)`` over the issued queries, iterating
*queried-major*: each issued query's co-occurrence row
(:meth:`~repro.crawler.localdb.LocalDatabase.cooc_row`) bulk-loads into
two arrays and scatters into a per-candidate running max.

Bit-identity with the scalar path is a design constraint, not an
accident:

- The ratio arithmetic is exact.  All inputs are integers below 2⁵³, so
  ``joint * n`` and ``f_cand * f_q`` are exact in float64 and the single
  division is correctly rounded — the same bits CPython's ``int/int``
  true division produces in the scalar loop.
- ``log`` is *not* vectorized.  ``max_i log(r_i) == log(max_i r_i)``
  because ``log`` is monotonic, so the kernel maximizes the exact ratios
  and the caller applies one ``math.log`` per candidate — numpy's SIMD
  ``np.log`` may differ from libm by an ulp, ``math.log`` cannot.
- Queried-major and candidate-major visit exactly the same ``(cand, q)``
  pairs: a co-occurrence row holds precisely the positive-joint
  neighbours, and ``max`` is order-independent.

The kernel is only equivalent to ``aggregate="max"``; the ``mean``
variant sums logs in set-iteration order and stays on the scalar
:meth:`~repro.crawler.localdb.LocalDatabase.dependency_score_ids`.
GL's and GF's frontier flushes score per id: their dirty sets are small
(a median of 22–24 ids on ebay crawls), and below about 50 ids a Python
loop beats a numpy gather (DESIGN.md §6, item 8).
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Sequence

import numpy as np

#: ``array('I')`` must be 4 bytes for the zero-copy uint32 view; on the
#: (rare) platform where it is not, MMMI stays on the scalar recompute.
_U32_OK = array("I").itemsize == 4


def supports_mmmi(local) -> bool:
    """Whether :func:`mmmi_best_ratios` can serve this database."""
    return (
        _U32_OK
        and getattr(local, "track_cooccurrence", False)
        and hasattr(local, "cooc_row")
        and hasattr(local, "frequency_column")
    )


def mmmi_best_ratios(
    local, queried_ids: Sequence[int], cand_ids: Sequence[int]
) -> List[float]:
    """Per-candidate max co-occurrence ratio against the issued queries.

    Returns ``best[i] = max_q joint(c_i, q)·n / (f(c_i)·f(q))`` over the
    issued queries ``q`` co-occurring with candidate ``c_i``, or ``0.0``
    when none co-occurs (ratios are strictly positive, so 0 is a safe
    sentinel; the scalar path's ``-inf`` dependency maps to the same
    "independent" outcome).  ``math.log`` of each positive entry equals
    the scalar ``dependency_score_ids(..., use_max=True)`` bit for bit.
    """
    total = len(cand_ids)
    best = np.zeros(total, dtype=np.float64)
    n = len(local)
    freq_col = local.frequency_column()
    num_ids = len(freq_col)
    if total == 0 or n == 0 or num_ids == 0:
        return best.tolist()
    cand = np.fromiter(cand_ids, dtype=np.int64, count=total)
    is_candidate = np.zeros(num_ids, dtype=np.bool_)
    is_candidate[cand] = True
    index_of = np.zeros(num_ids, dtype=np.int64)
    index_of[cand] = np.arange(total, dtype=np.int64)
    freq = np.frombuffer(freq_col, dtype=np.uint32).astype(np.float64)
    nf = float(n)
    cooc_row = local.cooc_row
    for q in queried_ids:
        if q >= num_ids:
            continue
        row: Dict[int, int] = cooc_row(q)
        k = len(row)
        if k == 0:
            continue
        fq = freq_col[q]
        if fq == 0:
            continue
        partners = np.fromiter(row.keys(), dtype=np.int64, count=k)
        mask = is_candidate[partners]
        if not mask.any():
            continue
        joints = np.fromiter(row.values(), dtype=np.float64, count=k)
        hit = partners[mask]
        # Exact: joints·n and f_cand·f_q are integer-valued float64
        # products (< 2^53), the division is correctly rounded — the
        # same bits as the scalar int/int true division.
        ratios = (joints[mask] * nf) / (freq[hit] * float(fq))
        slots = index_of[hit]
        # A row's keys are unique, so the fancy-indexed read-modify-write
        # has no duplicate-slot hazard within one query.
        np.maximum(best[slots], ratios, out=ratios)
        best[slots] = ratios
    return best.tolist()
