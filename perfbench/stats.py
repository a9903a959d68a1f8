"""Order statistics for benchmark samples.

One definition of percentile is used everywhere — the "exclusive" method
of :func:`statistics.quantiles` for quartiles, and nearest-rank for the
tail percentiles of per-round times — so the printed table and the
JSON result line agree on what a median or a quartile is.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

__all__ = ["Summary", "percentile", "quartiles", "summarize"]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``.

    Nearest-rank returns an observed sample, never an interpolation, so a
    p90 over round times is the time of a round that actually happened.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile q must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100 * len(ordered))
    return ordered[rank - 1]


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them.

    A single sample is its own three quartiles (``quantiles`` needs two).
    """
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        only = values[0]
        return only, only, only
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


@dataclass(frozen=True)
class Summary:
    """One metric's samples reduced to what the report prints."""

    value: float
    q1: float
    median: float
    q3: float
    count: int


def summarize(values: Sequence[float], value: float | None = None) -> Summary:
    """Summarize ``values``; the reported ``value`` defaults to the median.

    Ratio metrics (rounds per second over a whole run) pass their own
    ``value`` and keep the per-unit samples for the quartiles.
    """
    q1, median, q3 = quartiles(values)
    return Summary(
        value=median if value is None else value,
        q1=q1,
        median=median,
        q3=q3,
        count=len(values),
    )
