"""Abstract interpretation of the severity model: interval bounds.

The severity of one provider (Eq. 15) is a sum of products::

    Violation_i = sum_{clauses} diff(p, P) x Sigma^a x s_i^a x s_i^a[dim]

The *geometric* factor — the rank exceedance ``diff(p, P)`` and with it
Definition 1's binary ``w_i`` — depends only on the lattice distance
between the policy and preference tuples, never on the weights.  This
module exploits that split to bound severities **without evaluating the
engine**:

* the raw exceedance profile of every provider is computed exactly from
  the documents (clause shapes are deduplicated, so a population in which
  thousands of providers share a handful of distinct preference tuples
  pays the geometry once per shape, not once per provider);
* the weight factor is abstracted to a per-``(attribute, dimension)``
  interval ``[w_min, w_max]`` taken over the providers supplying the
  attribute (``weight_bounds="population"``) or to the provider's own
  exact weights (``weight_bounds="provider"``, collapsing the interval to
  a point).

The two passes are :meth:`IntervalGeometry.of` (the geometry) and
:meth:`IntervalGeometry.weigh` (one weight-bounds mode), so a lint run
computes the geometry once per context and weighs it once per mode.

The result is a sound enclosure: for every provider,
``lower_i <= Violation_i <= upper_i`` where ``Violation_i`` is the exact
Eq. 15 value the :class:`~repro.core.engine.ViolationEngine` computes,
and the finding count (hence ``w_i`` and Definition 3's ``P(W)``) is
**exact**, so :meth:`PopulationIntervals.certificate` equals the
certificate :meth:`~repro.perf.batch.BatchViolationEngine.certify`
derives from a full evaluation, in either weight-bounds mode.  Both
properties are held against the engines on hundreds of randomized
populations in ``tests/properties/test_interval_soundness.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter
from typing import Hashable, Iterator

from .._validation import check_probability
from ..core.dimensions import ORDERED_DIMENSIONS
from ..core.policy import HousePolicy
from ..core.population import Population
from ..core.ppdb import PPDBCertificate
from ..exceptions import ValidationError
from ..obs import active_observer

#: The admissible ``weight_bounds`` modes of :func:`interval_analysis`.
WEIGHT_BOUND_MODES = ("population", "provider")


@dataclass(frozen=True, slots=True)
class SeverityInterval:
    """A closed interval ``[lower, upper]`` of severities."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ValidationError("severity bounds must not be NaN")
        if self.lower > self.upper:
            raise ValidationError(
                f"severity interval is empty: lower {self.lower!r} > "
                f"upper {self.upper!r}"
            )

    @classmethod
    def zero(cls) -> "SeverityInterval":
        """The point interval ``[0, 0]``."""
        return cls(0.0, 0.0)

    @classmethod
    def point(cls, value: float) -> "SeverityInterval":
        """The degenerate interval ``[value, value]``."""
        return cls(value, value)

    @property
    def width(self) -> float:
        """``upper - lower``."""
        return self.upper - self.lower

    @property
    def is_point(self) -> bool:
        """Whether the interval pins a single value."""
        return self.lower == self.upper

    def contains(self, value: float) -> bool:
        """Whether *value* lies inside the interval (inclusive)."""
        return self.lower <= value <= self.upper

    def __contains__(self, value: object) -> bool:
        return isinstance(value, (int, float)) and self.contains(float(value))

    def __add__(self, other: "SeverityInterval") -> "SeverityInterval":
        if not isinstance(other, SeverityInterval):
            return NotImplemented
        return SeverityInterval(self.lower + other.lower, self.upper + other.upper)

    def as_dict(self) -> dict[str, float]:
        """The interval as a JSON-safe dict."""
        return {"lower": self.lower, "upper": self.upper}

    def __str__(self) -> str:
        return f"[{self.lower:g}, {self.upper:g}]"


@dataclass(frozen=True, slots=True)
class ProviderSeverityBounds:
    """The static verdict for one provider.

    ``interval`` encloses the exact ``Violation_i``; ``findings`` is the
    **exact** number of dimension-level exceedances (weight-independent),
    so ``violated`` is Definition 1's exact ``w_i``.  The default verdict
    is three-valued: ``must_default`` (the lower bound already trips the
    threshold), ``may_default`` (only the upper bound does), or safe.
    """

    provider_id: Hashable
    interval: SeverityInterval
    findings: int
    threshold: float
    strict: bool

    @property
    def violated(self) -> bool:
        """Definition 1's ``w_i`` — exact, not an approximation."""
        return self.findings > 0

    @property
    def provably_safe(self) -> bool:
        """No clause geometry can violate this provider under the policy."""
        return self.findings == 0

    @property
    def must_default(self) -> bool:
        """Definition 4 trips for every weight assignment in the bounds."""
        if self.strict:
            return self.interval.lower > self.threshold
        return self.interval.lower >= self.threshold

    @property
    def may_default(self) -> bool:
        """Definition 4 trips for some weight assignment in the bounds."""
        if self.strict:
            return self.interval.upper > self.threshold
        return self.interval.upper >= self.threshold

    def as_dict(self) -> dict[str, object]:
        """The bounds as a JSON-safe dict."""
        return {
            "provider": str(self.provider_id),
            "lower": self.interval.lower,
            "upper": self.interval.upper,
            "findings": self.findings,
            "violated": self.violated,
            "threshold": (
                None if math.isinf(self.threshold) else self.threshold
            ),
            "must_default": self.must_default,
            "may_default": self.may_default,
        }


@dataclass(frozen=True, slots=True)
class PopulationIntervals:
    """The static analysis of one (policy, population) pair.

    ``providers`` is in population order (the same order every engine
    report uses); ``house`` encloses Eq. 16's total ``Violations``.
    """

    policy_name: str
    providers: tuple[ProviderSeverityBounds, ...]
    house: SeverityInterval
    strict: bool
    weight_bounds: str

    def __len__(self) -> int:
        return len(self.providers)

    def __iter__(self) -> Iterator[ProviderSeverityBounds]:
        return iter(self.providers)

    @property
    def n_providers(self) -> int:
        """Population size ``N``."""
        return len(self.providers)

    @property
    def n_violated(self) -> int:
        """Exact count of providers with ``w_i = 1``."""
        return sum(1 for bounds in self.providers if bounds.violated)

    @property
    def violation_probability(self) -> float:
        """Definition 2's ``P(W)`` — exact, derived from exact ``w_i``."""
        n = len(self.providers)
        return (self.n_violated / n) if n else 0.0

    def violated_ids(self) -> tuple[Hashable, ...]:
        """Providers with ``w_i = 1``, in population order."""
        return tuple(b.provider_id for b in self.providers if b.violated)

    def provably_safe_ids(self) -> tuple[Hashable, ...]:
        """Providers no weight assignment can make violated."""
        return tuple(b.provider_id for b in self.providers if b.provably_safe)

    def default_probability_bounds(self) -> SeverityInterval:
        """Bounds on ``P(Default)`` (Definition 5) under the enclosure."""
        n = len(self.providers)
        if not n:
            return SeverityInterval.zero()
        must = sum(1 for b in self.providers if b.must_default)
        may = sum(1 for b in self.providers if b.may_default)
        return SeverityInterval(must / n, may / n)

    def bounds_for(self, provider_id: Hashable) -> ProviderSeverityBounds:
        """The bounds of one provider.

        Raises
        ------
        ValidationError
            If the provider is not in the analyzed population.
        """
        for bounds in self.providers:
            if bounds.provider_id == provider_id:
                return bounds
        raise ValidationError(
            f"provider {provider_id!r} is not in the analyzed population"
        )

    def certificate(self, alpha: float) -> PPDBCertificate:
        """Definition 3's certificate, derived without evaluation.

        Because the violated set is exact, the certificate is
        field-for-field identical to the one
        :meth:`~repro.perf.batch.BatchViolationEngine.certify` computes
        from a full evaluation (same violated tuple in population order,
        same ``P(W)`` float).
        """
        alpha = check_probability(alpha, "alpha")
        n = len(self.providers)
        if n == 0:
            return PPDBCertificate(
                alpha=alpha,
                violation_probability=0.0,
                satisfied=True,
                n_providers=0,
                violated_providers=(),
                policy_name=self.policy_name,
            )
        violated = self.violated_ids()
        p_w = len(violated) / n
        return PPDBCertificate(
            alpha=alpha,
            violation_probability=p_w,
            satisfied=p_w <= alpha,
            n_providers=n,
            violated_providers=violated,
            policy_name=self.policy_name,
        )

    def as_dict(self) -> dict[str, object]:
        """The analysis as a JSON-safe dict."""
        return {
            "policy": self.policy_name,
            "weight_bounds": self.weight_bounds,
            "n_providers": self.n_providers,
            "n_violated": self.n_violated,
            "violation_probability": self.violation_probability,
            "house": self.house.as_dict(),
            "providers": [b.as_dict() for b in self.providers],
        }

    def __str__(self) -> str:
        return (
            f"PopulationIntervals[{self.policy_name}]: N={self.n_providers}, "
            f"P(W)={self.violation_probability:.4f}, "
            f"Violations in {self.house}"
        )


def _policy_shapes(
    policy: HousePolicy,
) -> dict[tuple[str, str], tuple[tuple[int, int, int], ...]]:
    """Policy entries grouped by ``(attribute, purpose)`` column."""
    grouped: dict[tuple[str, str], list[tuple[int, int, int]]] = {}
    for entry in policy.entries:
        key = (entry.attribute, entry.tuple.purpose)
        grouped.setdefault(key, []).append(
            (
                entry.tuple.visibility,
                entry.tuple.granularity,
                entry.tuple.retention,
            )
        )
    return {key: tuple(sorted(ranks)) for key, ranks in grouped.items()}


def _shape_exceedance(
    policy_ranks: tuple[tuple[int, int, int], ...],
    pref_ranks: tuple[int, int, int],
) -> tuple[tuple[int, int, int], int]:
    """Eq. 12 applied to one clause shape: raw exceedances plus count.

    Returns the per-dimension exceedance totals of every policy rank
    triple in the column over *pref_ranks*, and the number of
    dimension-level findings — exactly the terms
    :func:`~repro.core.violation.find_violations` produces for the pair.
    """
    totals = [0, 0, 0]
    count = 0
    for ranks in policy_ranks:
        for axis in range(3):
            exceedance = ranks[axis] - pref_ranks[axis]
            if exceedance > 0:
                totals[axis] += exceedance
                count += 1
    return (totals[0], totals[1], totals[2]), count


@dataclass(frozen=True, slots=True)
class IntervalGeometry:
    """Pass 1 of :func:`interval_analysis`: the exact, weight-independent
    geometry of one (policy, population) pair.

    ``profiles[i]`` maps each attribute to provider *i*'s raw
    per-dimension exceedance totals, ``finding_counts[i]`` is its exact
    number of dimension-level findings, and ``suppliers`` lists the
    providers supplying each attribute, in population order.  One
    geometry serves both weight-bounds modes (:meth:`weigh`).
    """

    policy_name: str
    population: Population
    profiles: tuple[dict[str, list[int]], ...]
    finding_counts: tuple[int, ...]
    suppliers: dict[str, list[Hashable]]

    @classmethod
    def of(cls, policy: HousePolicy, population: Population) -> "IntervalGeometry":
        """The geometry of *policy* against *population*.

        Clause shapes are memoised, so a population sharing few
        distinct preference tuples pays each shape once.
        """
        obs = active_observer()
        start = perf_counter() if obs is not None else 0.0
        columns = _policy_shapes(policy)
        by_attribute: dict[str, dict[str, tuple[tuple[int, int, int], ...]]] = {}
        for (attribute, purpose), ranks in columns.items():
            by_attribute.setdefault(attribute, {})[purpose] = ranks

        shape_cache: dict[
            tuple[str, str, tuple[int, int, int]], tuple[tuple[int, int, int], int]
        ] = {}
        profiles: list[dict[str, list[int]]] = []
        finding_counts: list[int] = []
        suppliers: dict[str, list[Hashable]] = {}
        for provider in population:
            preferences = provider.preferences
            raw: dict[str, list[int]] = {}
            findings = 0
            stated: set[tuple[str, str]] = set()
            for entry in preferences.entries:
                attribute = entry.attribute
                purpose = entry.purpose
                key = (attribute, purpose)
                stated.add(key)
                policy_ranks = columns.get(key)
                if not policy_ranks:
                    continue
                pref_ranks = (
                    entry.tuple.visibility,
                    entry.tuple.granularity,
                    entry.tuple.retention,
                )
                shape_key = (attribute, purpose, pref_ranks)
                shape = shape_cache.get(shape_key)
                if shape is None:
                    shape = _shape_exceedance(policy_ranks, pref_ranks)
                    shape_cache[shape_key] = shape
                exceedance, count = shape
                if count:
                    totals = raw.setdefault(attribute, [0, 0, 0])
                    for axis in range(3):
                        totals[axis] += exceedance[axis]
                    findings += count
            for attribute in preferences.attributes_provided:
                suppliers.setdefault(attribute, []).append(provider.provider_id)
                purposes = by_attribute.get(attribute)
                if not purposes:
                    continue
                for purpose, policy_ranks in purposes.items():
                    if (attribute, purpose) in stated:
                        continue
                    shape_key = (attribute, purpose, (0, 0, 0))
                    shape = shape_cache.get(shape_key)
                    if shape is None:
                        shape = _shape_exceedance(policy_ranks, (0, 0, 0))
                        shape_cache[shape_key] = shape
                    exceedance, count = shape
                    if count:
                        totals = raw.setdefault(attribute, [0, 0, 0])
                        for axis in range(3):
                            totals[axis] += exceedance[axis]
                        findings += count
            profiles.append(raw)
            finding_counts.append(findings)
        if obs is not None:
            obs.set_gauge("lint.interval_shapes", len(shape_cache))
            obs.observe(
                "lint.interval_seconds", perf_counter() - start, step="geometry"
            )
        return cls(
            policy_name=policy.name,
            population=population,
            profiles=tuple(profiles),
            finding_counts=tuple(finding_counts),
            suppliers=suppliers,
        )

    def weigh(self, weight_bounds: str) -> PopulationIntervals:
        """Pass 2: bound each severity under one weight-bounds mode, with
        the population's own sensitivity and default models."""
        if weight_bounds not in WEIGHT_BOUND_MODES:
            raise ValidationError(
                f"weight_bounds must be one of {WEIGHT_BOUND_MODES}, "
                f"got {weight_bounds!r}"
            )
        obs = active_observer()
        start = perf_counter() if obs is not None else 0.0
        population = self.population
        model = population.sensitivity_model()
        defaults = population.default_model()
        weight_range: dict[str, tuple[list[float], list[float]]] = {}
        if weight_bounds == "population":
            for attribute, provider_ids in self.suppliers.items():
                attribute_weight = model.attribute_weight(attribute)
                low = [math.inf] * 3
                high = [-math.inf] * 3
                for provider_id in provider_ids:
                    datum = model.datum(provider_id, attribute)
                    base = attribute_weight * datum.value
                    for axis, dim in enumerate(ORDERED_DIMENSIONS):
                        weight = base * datum.dimension_weight(dim)
                        if weight < low[axis]:
                            low[axis] = weight
                        if weight > high[axis]:
                            high[axis] = weight
                weight_range[attribute] = (low, high)

        bounds: list[ProviderSeverityBounds] = []
        house_lower = 0.0
        house_upper = 0.0
        for provider, raw, findings in zip(
            population, self.profiles, self.finding_counts
        ):
            lower = 0.0
            upper = 0.0
            for attribute, totals in raw.items():
                if weight_bounds == "provider":
                    attribute_weight = model.attribute_weight(attribute)
                    datum = model.datum(provider.provider_id, attribute)
                    base = attribute_weight * datum.value
                    for axis, dim in enumerate(ORDERED_DIMENSIONS):
                        if totals[axis]:
                            exact = totals[axis] * base * datum.dimension_weight(dim)
                            lower += exact
                            upper += exact
                else:
                    low, high = weight_range[attribute]
                    for axis in range(3):
                        if totals[axis]:
                            lower += totals[axis] * low[axis]
                            upper += totals[axis] * high[axis]
            house_lower += lower
            house_upper += upper
            bounds.append(
                ProviderSeverityBounds(
                    provider_id=provider.provider_id,
                    interval=SeverityInterval(lower, upper),
                    findings=findings,
                    threshold=defaults.threshold(provider.provider_id),
                    strict=defaults.strict,
                )
            )
        result = PopulationIntervals(
            policy_name=self.policy_name,
            providers=tuple(bounds),
            house=SeverityInterval(house_lower, house_upper),
            strict=defaults.strict,
            weight_bounds=weight_bounds,
        )
        if obs is not None:
            obs.inc("lint.interval_analyses")
            obs.observe(
                "lint.interval_seconds", perf_counter() - start, step="weights"
            )
        return result


def interval_analysis(
    policy: HousePolicy,
    population: Population,
    *,
    weight_bounds: str = "population",
) -> PopulationIntervals:
    """Bound every ``Violation_i`` (and Eq. 16) from the documents alone.

    The model is the engines': the population's own sensitivity and
    default models, with Section 5's implicit-zero completion.

    Parameters
    ----------
    policy, population:
        The pair to analyze.  Neither is evaluated: only lattice
        distances and sensitivity lookups are performed.
    weight_bounds:
        ``"population"`` abstracts each ``(attribute, dimension)`` weight
        to its min/max over the providers supplying the attribute —
        cheap, and sound for any provider.  ``"provider"`` uses each
        provider's own weights, collapsing every interval to the exact
        static severity (still without invoking an engine).

    """
    if not isinstance(policy, HousePolicy):
        raise ValidationError(
            f"policy must be a HousePolicy, got {type(policy).__name__}"
        )
    if not isinstance(population, Population):
        raise ValidationError(
            f"population must be a Population, got {type(population).__name__}"
        )
    return IntervalGeometry.of(policy, population).weigh(weight_bounds)
