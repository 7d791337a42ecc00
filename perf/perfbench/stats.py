"""Order statistics used for every reported timing."""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linearly interpolated."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them — the rule the acceptance driver applies to its ten runs."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def more_reps(walls: Sequence[float], min_reps: int, seconds: float) -> bool:
    """Whether another repetition fits: always below ``min_reps``, then
    only while the timed work so far plus one typical repetition stays
    within ``seconds``."""
    if len(walls) < min_reps:
        return True
    return sum(walls) + median(walls) <= seconds
