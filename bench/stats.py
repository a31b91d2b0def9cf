"""Order statistics for the latency metrics."""

from __future__ import annotations

import math

MIN_BEYOND = 10
TAIL_CANDIDATES = tuple(range(50, 100)) + (99.9,)


def _rank(count: int, pct: float) -> int:
    # round first: 99.9 / 100 * 10000 is 9990.000000000002 in binary floating point
    return max(1, math.ceil(round(pct * count / 100.0, 9)))


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least pct% of the
    samples at or below it."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), pct) - 1]


def beyond(count: int, pct: float) -> int:
    """How many of `count` samples sit above the nearest-rank pct percentile."""
    return count - _rank(count, pct)


def tail_percentile(count: int) -> float:
    """The highest candidate percentile with at least MIN_BEYOND samples above
    it; the median when the run is too short for any."""
    fitting = [p for p in TAIL_CANDIDATES if beyond(count, p) >= MIN_BEYOND]
    return max(fitting, default=50)
