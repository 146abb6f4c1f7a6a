"""Seeded samplers for preferences, sensitivities, and thresholds.

Each sampler takes an explicit :class:`numpy.random.Generator` so every
simulation is reproducible bit-for-bit from its seed.  The samplers encode
one population segment's *disposition*:

* ``tightness`` in ``[0, 1]`` — how close to "reveal nothing" the
  segment's preferences sit.  Tightness 1 pins every preference at rank 0;
  tightness 0 allows the full ladder.
* sensitivity and threshold ranges — uniform draws within per-segment
  bounds (the paper's ``s``/``s[dim]`` weights and ``v_i`` tolerances).
"""

from __future__ import annotations

import math

import numpy as np

from .._validation import check_real
from ..core.dimensions import Dimension, ORDERED_DIMENSIONS
from ..core.sensitivity import DimensionSensitivity
from ..core.tuples import PrivacyTuple
from ..exceptions import SimulationError
from ..taxonomy.builder import Taxonomy


def _max_rank(taxonomy: Taxonomy, dimension: Dimension, fallback: int = 6) -> int:
    """The top rank of a dimension's ladder (bounded for open-ended retention)."""
    domain = taxonomy.domain(dimension)
    top = domain.max_rank
    return fallback if top is None else top


def preference_ceilings(taxonomy: Taxonomy, tightness: float) -> list[int]:
    """Per ordered dimension (V, G, R), the top rank a preference of this
    *tightness* is drawn up to: ``round((1 - tightness) * max_rank)``."""
    return [
        int(round((1.0 - tightness) * _max_rank(taxonomy, dimension)))
        for dimension in ORDERED_DIMENSIONS
    ]


def check_range(bounds: tuple[float, float], name: str) -> tuple[float, float]:
    """Return sampling *bounds* as floats if finite with ``0 <= lo <= hi``.

    Finite bounds make ``lo + (hi - lo) * rng.random()`` equal
    ``rng.uniform(lo, hi)`` bit for bit, which is how every uniform
    value here is drawn.
    """
    lo, hi = bounds
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi or lo < 0:
        raise SimulationError(f"invalid {name} {bounds!r}")
    return float(lo), float(hi)


def sample_preference_tuple(
    rng: np.random.Generator,
    taxonomy: Taxonomy,
    purpose: str,
    tightness: float,
) -> PrivacyTuple:
    """Draw one preference tuple for *purpose* with the given tightness.

    Each ordered rank is uniform on ``[0, ceiling]`` where
    ``ceiling = round((1 - tightness) * max_rank)``: tight segments cluster
    near "reveal nothing", loose segments roam the whole ladder.  The
    three ranks come from one broadcast draw, V first.
    """
    tightness = check_real(tightness, "tightness", minimum=0.0)
    if tightness > 1.0:
        raise SimulationError(f"tightness must be <= 1, got {tightness}")
    highs = [ceiling + 1 for ceiling in preference_ceilings(taxonomy, tightness)]
    visibility, granularity, retention = rng.integers(0, highs).tolist()
    return PrivacyTuple(purpose, visibility, granularity, retention)


def sample_dimension_sensitivity(
    rng: np.random.Generator,
    value_range: tuple[float, float],
    weight_range: tuple[float, float],
) -> DimensionSensitivity:
    """Draw one per-datum sensitivity record (Eq. 11).

    ``value_range`` bounds the data-value sensitivity ``s``;
    ``weight_range`` bounds each of the three dimension weights.  The four
    values come from one draw of four doubles, ``s`` first.
    """
    lo, hi = check_range(value_range, "value_range")
    wlo, whi = check_range(weight_range, "weight_range")
    value, visibility, granularity, retention = rng.random(4).tolist()
    return DimensionSensitivity(
        value=lo + (hi - lo) * value,
        visibility=wlo + (whi - wlo) * visibility,
        granularity=wlo + (whi - wlo) * granularity,
        retention=wlo + (whi - wlo) * retention,
    )


def sample_threshold(
    rng: np.random.Generator, threshold_range: tuple[float, float]
) -> float:
    """Draw one default tolerance ``v_i`` uniformly within bounds."""
    lo, hi = check_range(threshold_range, "threshold_range")
    return lo + (hi - lo) * rng.random()
