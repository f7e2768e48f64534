"""Nearest-rank percentiles and the ten-samples-beyond rule.

A reported percentile is only trusted when at least ten samples lie
beyond it: with ``n`` samples, the nearest-rank ``p``-th percentile is
the ``ceil(p * n / 100)``-th smallest value, and ``n - rank`` samples
lie above it.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: samples that must lie beyond a reported percentile
MIN_BEYOND = 10

#: percentiles the benchmark may report, ascending
CANDIDATES = (50.0, 90.0, 95.0, 99.0, 99.9)


def rank(p: float, n: int) -> int:
    """1-based nearest rank of the ``p``-th percentile of ``n`` samples."""
    if n < 1:
        raise ValueError("no samples")
    # the epsilon keeps exact products (99 * 1000 / 100) from rounding up
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def beyond(p: float, n: int) -> int:
    """Samples strictly above the nearest-rank ``p``-th percentile."""
    return n - rank(p, n)


def supported(p: float, n: int) -> bool:
    """True when ``n`` samples put at least ten beyond percentile ``p``."""
    return n >= 1 and beyond(p, n) >= MIN_BEYOND


def highest_supported(n: int, candidates: Sequence[float] = CANDIDATES) -> Optional[float]:
    """The highest candidate percentile with ten samples beyond it."""
    best = None
    for p in candidates:
        if supported(p, n):
            best = p
    return best


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    return ordered[rank(p, len(ordered)) - 1]

