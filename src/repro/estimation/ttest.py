"""Student-t confidence statements over size estimates.

The paper applies t-testing to its 15 pairwise overlap estimates and
concludes "with 90% confidence, the Amazon DVD product database contains
less than 37,000 data records" — a one-sided upper confidence bound on
the mean estimate.  Both the two-sided interval and the one-sided bound
are provided.

scipy, the package's heaviest import, loads inside the two callers of
``stats.t.ppf``, so importing this module (as the CLI and
:mod:`repro.experiments` do) stays cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.core.errors import EstimationError


@dataclass(frozen=True)
class ConfidenceInterval:
    """A mean with its two-sided confidence interval."""

    mean: float
    lower: float
    upper: float
    confidence: float
    n: int


def _check(values: Sequence[float]) -> None:
    if len(values) < 2:
        raise EstimationError("need at least two estimates for a t-interval")
    if any(not math.isfinite(v) for v in values):
        raise EstimationError("estimates must be finite")


def t_confidence_interval(
    values: Sequence[float], confidence: float = 0.9
) -> ConfidenceInterval:
    """Two-sided t confidence interval for the mean of ``values``."""
    _check(values)
    if not 0 < confidence < 1:
        raise EstimationError(f"confidence must be in (0, 1), got {confidence}")
    n = len(values)
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    stderr = math.sqrt(variance / n)
    from scipy import stats

    critical = float(stats.t.ppf(0.5 + confidence / 2, df=n - 1))
    margin = critical * stderr
    return ConfidenceInterval(mean, mean - margin, mean + margin, confidence, n)


def upper_confidence_bound(values: Sequence[float], confidence: float = 0.9) -> float:
    """One-sided upper bound: mean + t₍α₎·s/√n (the "< 37,000" statement)."""
    _check(values)
    if not 0 < confidence < 1:
        raise EstimationError(f"confidence must be in (0, 1), got {confidence}")
    n = len(values)
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    stderr = math.sqrt(variance / n)
    from scipy import stats

    critical = float(stats.t.ppf(confidence, df=n - 1))
    return mean + critical * stderr
