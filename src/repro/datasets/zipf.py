"""Zipf / power-law samplers for synthetic database generation.

The paper's Figure 2 case study finds AVG degree distributions "very
close to power-law": a few hub values are extremely popular while "the
massive many" are sparsely connected.  The generators therefore draw
attribute values Zipf-distributed — rank ``i`` is sampled with
probability proportional to ``1 / i^s`` — which yields the required
frequency (and hence degree) heavy tail.
"""

from __future__ import annotations

import bisect
import random
from typing import List, Sequence, TypeVar

import numpy as np

from repro.core.errors import DatasetError

T = TypeVar("T")


class ZipfSampler:
    """Samples ranks ``0 .. n-1`` with ``P(i) ∝ 1 / (i + 1)^exponent``.

    Sampling is O(log n) per draw via the precomputed CDF; construction
    is O(n).  ``exponent = 0`` degenerates to uniform sampling.
    """

    def __init__(self, n: int, exponent: float = 1.0) -> None:
        if n < 1:
            raise DatasetError(f"need at least one rank, got n={n}")
        if exponent < 0:
            raise DatasetError(f"exponent must be >= 0, got {exponent}")
        self.n = n
        self.exponent = exponent
        weights = 1.0 / np.power(np.arange(1, n + 1, dtype=float), exponent)
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        self._cdf: List[float] = cdf.tolist()

    def sample(self, rng: random.Random) -> int:
        """Draw one rank."""
        return bisect.bisect_left(self._cdf, rng.random())

    def sample_many(self, rng: random.Random, count: int) -> List[int]:
        return [self.sample(rng) for _ in range(count)]

    def sample_distinct(self, rng: random.Random, count: int) -> List[int]:
        """Draw ``count`` distinct ranks (count must not exceed n)."""
        if count > self.n:
            raise DatasetError(f"cannot draw {count} distinct ranks from {self.n}")
        seen: set[int] = set()
        out: List[int] = []
        # Rejection sampling is fast while count << n; fall back to a
        # weighted shuffle when the request is a large share of the space.
        if count <= self.n // 2:
            while len(out) < count:
                rank = self.sample(rng)
                if rank not in seen:
                    seen.add(rank)
                    out.append(rank)
            return out
        ranks = list(range(self.n))
        rng.shuffle(ranks)
        return ranks[:count]

    def probability(self, rank: int) -> float:
        """Exact probability of a rank under the sampler."""
        if not 0 <= rank < self.n:
            raise DatasetError(f"rank {rank} out of range [0, {self.n})")
        low = self._cdf[rank - 1] if rank > 0 else 0.0
        return self._cdf[rank] - low


def choose_zipf(items: Sequence[T], sampler: ZipfSampler, rng: random.Random) -> T:
    """Pick one item of a ranked sequence via the sampler."""
    if len(items) != sampler.n:
        raise DatasetError(
            f"sampler covers {sampler.n} ranks but sequence has {len(items)}"
        )
    return items[sampler.sample(rng)]


def pareto_int(rng: random.Random, minimum: int, mean: float) -> int:
    """A small heavy-tailed integer (≥ minimum) with roughly the given mean.

    Used for per-record multiplicity choices (number of authors,
    actors, keywords) where an occasional large cast matters.
    """
    if mean <= minimum:
        return minimum
    # Shifted geometric-ish tail built on the exponential transform.
    scale = mean - minimum
    draw = rng.expovariate(1.0 / scale)
    return minimum + int(draw)

