"""Order statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics

#: A tail percentile is reported only with at least this many samples
#: beyond it, so one slow op cannot set it on its own.
MIN_BEYOND = 10


def percentile(values: list[float], q: float) -> float:
    """The nearest-rank *q*-quantile of *values* (``0 < q < 1``).

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples lie
    beyond it: a p90 needs at least 100 samples.
    """
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    if len(ordered) - rank < MIN_BEYOND:
        raise ValueError(
            f"p{round(q * 100)} of {len(ordered)} samples has "
            f"{len(ordered) - rank} beyond it; need {MIN_BEYOND}"
        )
    return ordered[rank - 1]


def quartile_spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)`` as the acceptance rule
    computes them (``statistics.quantiles(values, n=4)``)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else math.inf
