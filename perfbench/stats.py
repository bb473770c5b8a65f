"""Percentiles under the tail rule, and the error-share accounting.

A tail percentile is only reported when at least :data:`MIN_TAIL` samples lie
beyond it, so a p90 needs 100 samples and a p99 needs 1000.  Percentiles use
the nearest-rank definition: the value at rank ``ceil(q/100 * n)`` of the
sorted samples, which leaves ``n - rank`` samples strictly beyond it.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import List, Sequence

__all__ = [
    "MIN_TAIL",
    "Metric",
    "Tally",
    "min_samples",
    "percentile",
    "samples_beyond",
]

#: Samples that must lie beyond a reported tail percentile.
MIN_TAIL = 10


def _rank(n: int, q: float) -> int:
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} is outside (0, 100]")
    return max(1, math.ceil(q / 100.0 * n))


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``q``-th percentile."""
    return n - _rank(n, q) if n else 0


def min_samples(q: float, tail: int = MIN_TAIL) -> int:
    """The fewest samples for which the ``q``-th percentile has ``tail`` beyond it."""
    n = 1
    while samples_beyond(n, q) < tail:
        n += 1
    return n


def percentile(values: Sequence[float], q: float, tail: int = MIN_TAIL) -> float:
    """Nearest-rank percentile; raises when fewer than ``tail`` samples lie beyond it.

    The median (``q == 50``) is exempt from the tail rule.
    """
    if not values:
        raise ValueError("no samples")
    if q == 50:
        return float(statistics.median(values))
    n = len(values)
    if samples_beyond(n, q) < tail:
        raise ValueError(
            f"p{q:g} of {n} samples has {samples_beyond(n, q)} beyond it; "
            f"need {tail} ({min_samples(q, tail)} samples)"
        )
    return float(sorted(values)[_rank(n, q) - 1])


@dataclass
class Metric:
    """One reported figure: value, unit, and the samples it was computed from."""

    value: float
    unit: str
    samples: int = 1


@dataclass
class Tally:
    """Operations attempted and operations with a wrong or missing answer.

    ``error_share`` is ``failed / attempted``.  Every error keeps a one-line
    reason so a run can say what went wrong, not only how often.
    """

    attempted: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.errors)

    @property
    def error_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def attempt(self) -> None:
        self.attempted += 1

    def error(self, reason: str) -> None:
        self.errors.append(reason)
