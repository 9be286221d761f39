"""Order statistics the benchmark reports: medians and honest tails."""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile must leave at least this many samples beyond it.
MIN_BEYOND = 10

#: The percentile a tail falls back to when no ladder rung qualifies.
MEDIAN = 50.0


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample >= ``pct`` % of all."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100], got {pct!r}")
    return ordered[max(_rank(pct, len(ordered)), 1) - 1]


def _rank(pct: float, count: int) -> int:
    """``ceil(pct % of count)``, exact in decimal so 99.9 % of 10 000 is 9990."""
    return math.ceil(Fraction(str(pct)) * count / 100)


def tail_percentile(count: int, *, beyond: int = MIN_BEYOND) -> float:
    """The highest ladder percentile of ``count`` samples with ``beyond`` past it.

    Falls back to the median when even the median leaves fewer than
    ``beyond`` samples past it, as on the fleet-scale workloads, whose
    runs time a handful of inputs: no higher percentile is backed by
    enough samples, and the maximum of a handful reads one input.
    """
    if count < 1:
        raise ValueError("tail of no samples")
    for pct in TAIL_LADDER:
        if count - _rank(pct, count) >= beyond:
            return pct
    return MEDIAN


def tail(samples) -> tuple[float, float]:
    """``(value, percentile)`` of the highest honest tail of ``samples``.

    At the median the value is :func:`median`'s, the one the p50
    metrics report.
    """
    pct = tail_percentile(len(samples))
    if pct == MEDIAN:
        return median(samples), pct
    return percentile(samples, pct), pct


def median(samples) -> float:
    return statistics.median(samples)


def relative_spread(values) -> float:
    """Inter-quartile range over the median, as the benchmark's bounds read it."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
