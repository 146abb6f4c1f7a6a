"""Forecast a candidate policy's defaults from estimated thresholds.

Closing Section 10's loop: with the default-fraction curve estimated from
observation, the house can evaluate a *candidate* widening before
deploying it — per provider (does this provider's predicted severity
exceed their estimated tolerance interval?) and in aggregate (expected
default count), and feed the aggregate straight back into the Section 9
economics (Eq. 31) via ``n_future``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from ..core.economics import break_even_extra_utility
from ..core.policy import HousePolicy
from ..core.population import Population
from ..perf import BatchViolationEngine
from .thresholds import ThresholdEstimator


@dataclass(frozen=True, slots=True)
class DefaultForecast:
    """Predicted consequences of a candidate policy."""

    policy_name: str
    n_providers: int
    expected_defaults: float
    certain_defaults: tuple[Hashable, ...]
    possible_defaults: tuple[Hashable, ...]
    break_even_extra_utility: float

    @property
    def expected_default_fraction(self) -> float:
        """Expected fraction of providers leaving."""
        if self.n_providers == 0:
            return 0.0
        return self.expected_defaults / self.n_providers


def forecast_defaults(
    estimator: ThresholdEstimator,
    population: Population,
    candidate: HousePolicy,
    *,
    per_provider_utility: float = 1.0,
) -> DefaultForecast:
    """Predict the candidate policy's defaults from estimated thresholds.

    Per provider, the candidate's severity is computed from the collected
    preferences (which the house *does* hold); the provider is a

    * **certain default** when the severity exceeds the observation's
      upper bound (they already left at a lower severity — or would),
    * **possible default** when the severity lands inside the censoring
      interval; its probability mass is the fraction of the interval
      below the severity (same assumption as the estimator's curve),
    * safe when the severity is at most the observed lower bound.

    The expected default count sums those probabilities; the break-even
    ``T*`` (Eq. 31) is evaluated at the *expected* future population,
    which is the planning quantity Section 9 needs.
    """
    report = BatchViolationEngine(population).evaluate(candidate)
    by_provider = {obs.provider_id: obs for obs in estimator.observations}
    expected = 0.0
    certain: list[Hashable] = []
    possible: list[Hashable] = []
    for provider_id, severity in zip(report.provider_ids, report.violations):
        obs = by_provider.get(provider_id)
        if obs is None:
            continue  # no behavioural record: nothing to predict from
        severity = float(severity)
        if obs.censored:
            # Known to tolerate obs.lower; anything above is unknown —
            # conservatively predict no default (matches the estimator).
            continue
        if severity >= obs.upper:
            expected += 1.0
            certain.append(provider_id)
        elif severity > obs.lower:
            width = obs.upper - obs.lower
            probability = 1.0 if width <= 0 else (severity - obs.lower) / width
            expected += probability
            possible.append(provider_id)
    n = len(population)
    n_future_expected = max(1, round(n - expected))
    return DefaultForecast(
        policy_name=candidate.name,
        n_providers=n,
        expected_defaults=expected,
        certain_defaults=tuple(certain),
        possible_defaults=tuple(possible),
        break_even_extra_utility=break_even_extra_utility(
            per_provider_utility, n, min(n, n_future_expected)
        ),
    )
