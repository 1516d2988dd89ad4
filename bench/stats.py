"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import math

from hostspeed import nominal_seconds

# Percentiles a latency report may quote as its tail, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def tail_percentile(count: int, candidates=TAIL_CANDIDATES) -> float | None:
    """Highest candidate percentile that leaves at least ``MIN_BEYOND``
    samples above it out of ``count``; None when even the lowest does not."""
    for p in candidates:
        # in tenths of a percent, so 99.9 of 10000 samples leaves exactly 10
        if count * (1000 - round(p * 10)) >= MIN_BEYOND * 1000:
            return p
    return None


def rate(pieces, fallback_speed: float = 1.0) -> float:
    """Work per second at the nominal host speed over repeated pieces of
    identical work, given as (work, ``hostspeed.Piece``) pairs: total work
    over total nominal time."""
    return sum(w for w, _ in pieces) / nominal_seconds([p for _, p in pieces], fallback_speed)


def typical_seconds(pieces, fallback_speed: float = 1.0) -> float:
    """Mean nominal seconds of identical pieces (``hostspeed.Piece``)."""
    return nominal_seconds(pieces, fallback_speed) / len(pieces)
