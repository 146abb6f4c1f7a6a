"""The :class:`ViolationEngine`: one object tying policy and population together.

The engine evaluates the whole model in one pass — per-provider findings,
``w_i``, ``Violation_i``, ``default_i`` — caches the results, and exposes
the aggregate quantities (``P(W)``, ``P(Default)``, ``Violations``,
alpha-PPDB checks).  ``with_policy`` re-evaluates the same population under
a different policy, which is the basic step of every what-if analysis and
widening sweep in :mod:`repro.simulation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Hashable

from .._validation import check_probability
from ..exceptions import UnknownProviderError, ValidationError
from ..obs import active_observer
from .default import DefaultModel
from .policy import HousePolicy
from .population import Population
from .ppdb import PPDBCertificate
from .sensitivity import SensitivityModel
from .severity import SeverityBreakdown
from .violation import ViolationFinding, find_violations


@dataclass(frozen=True, slots=True)
class ProviderOutcome:
    """Everything the model says about one provider under one policy."""

    provider_id: Hashable
    violated: bool
    violation: float
    threshold: float
    defaulted: bool
    findings: tuple[ViolationFinding, ...]
    segment: str | None = None

    def breakdown(self) -> SeverityBreakdown:
        """The severity decomposition for this provider."""
        return SeverityBreakdown.from_findings(self.provider_id, self.findings)


@dataclass(frozen=True, slots=True)
class EngineReport:
    """Aggregate view over a full evaluation.

    ``violation_probability`` is Definition 2's ``P(W)``;
    ``default_probability`` is Definition 5's ``P(Default)``;
    ``total_violations`` is Equation 16.
    """

    policy_name: str
    n_providers: int
    n_violated: int
    n_defaulted: int
    violation_probability: float
    default_probability: float
    total_violations: float
    outcomes: tuple[ProviderOutcome, ...]

    def violated_ids(self) -> tuple[Hashable, ...]:
        """Providers with ``w_i = 1``."""
        return tuple(o.provider_id for o in self.outcomes if o.violated)

    def defaulted_ids(self) -> tuple[Hashable, ...]:
        """Providers with ``default_i = 1``."""
        return tuple(o.provider_id for o in self.outcomes if o.defaulted)

    def __str__(self) -> str:
        return (
            f"EngineReport[{self.policy_name}]: N={self.n_providers}, "
            f"P(W)={self.violation_probability:.4f}, "
            f"P(Default)={self.default_probability:.4f}, "
            f"Violations={self.total_violations:g}"
        )


class ViolationEngine:
    """Evaluate the full violation model for one policy over one population.

    The evaluation is performed lazily on first access and cached; the
    engine is immutable with respect to its inputs, so the cache can never
    go stale.  Use :meth:`with_policy` (or :meth:`with_population`) to get a
    sibling engine for a different scenario.

    Parameters
    ----------
    policy:
        The house policy ``HP``.
    population:
        The providers (with their sensitivities and thresholds).
    sensitivities, default_model:
        Optional overrides; default to the population's own models.
    implicit_zero:
        Whether the implicit-zero-preference completion of Section 5 is
        applied (default True, as in the paper).
    """

    __slots__ = (
        "_policy",
        "_population",
        "_sensitivities",
        "_default_model",
        "_implicit_zero",
        "_outcomes",
    )

    def __init__(
        self,
        policy: HousePolicy,
        population: Population,
        *,
        sensitivities: SensitivityModel | None = None,
        default_model: DefaultModel | None = None,
        implicit_zero: bool = True,
    ) -> None:
        if not isinstance(policy, HousePolicy):
            raise ValidationError(
                f"policy must be a HousePolicy, got {type(policy).__name__}"
            )
        if not isinstance(population, Population):
            raise ValidationError(
                f"population must be a Population, got {type(population).__name__}"
            )
        self._policy = policy
        self._population = population
        self._sensitivities = (
            sensitivities
            if sensitivities is not None
            else population.sensitivity_model()
        )
        self._default_model = (
            default_model
            if default_model is not None
            else population.default_model()
        )
        self._implicit_zero = bool(implicit_zero)
        self._outcomes: dict[Hashable, ProviderOutcome] | None = None

    @property
    def policy(self) -> HousePolicy:
        """The policy under evaluation."""
        return self._policy

    @property
    def population(self) -> Population:
        """The population under evaluation."""
        return self._population

    @property
    def sensitivities(self) -> SensitivityModel:
        """The sensitivity model in effect."""
        return self._sensitivities

    @property
    def default_model(self) -> DefaultModel:
        """The default-threshold model in effect."""
        return self._default_model

    def _evaluate(self) -> dict[Hashable, ProviderOutcome]:
        if self._outcomes is not None:
            return self._outcomes
        obs = active_observer()
        start = perf_counter() if obs is not None else 0.0
        outcomes: dict[Hashable, ProviderOutcome] = {}
        for provider in self._population:
            findings = find_violations(
                provider.preferences,
                self._policy,
                self._sensitivities,
                implicit_zero=self._implicit_zero,
            )
            violation = sum(f.weighted for f in findings)
            threshold = self._default_model.threshold(provider.provider_id)
            defaulted = bool(
                self._default_model.defaults(provider.provider_id, violation)
            )
            outcomes[provider.provider_id] = ProviderOutcome(
                provider_id=provider.provider_id,
                violated=bool(findings),
                violation=violation,
                threshold=threshold,
                defaulted=defaulted,
                findings=tuple(findings),
                segment=provider.segment,
            )
        self._outcomes = outcomes
        if obs is not None:
            obs.inc("engine.reference.evaluations")
            obs.observe(
                "engine.reference.evaluate_seconds", perf_counter() - start
            )
        return outcomes

    def outcome(self, provider_id: Hashable) -> ProviderOutcome:
        """The cached outcome for one provider."""
        outcomes = self._evaluate()
        try:
            return outcomes[provider_id]
        except KeyError:
            raise UnknownProviderError(provider_id) from None

    def outcomes(self) -> tuple[ProviderOutcome, ...]:
        """All outcomes, in population order."""
        evaluated = self._evaluate()
        return tuple(evaluated[pid] for pid in self._population.ids())

    def report(self) -> EngineReport:
        """The aggregate :class:`EngineReport` for this evaluation."""
        outcomes = self.outcomes()
        n = len(outcomes)
        n_violated = sum(1 for o in outcomes if o.violated)
        n_defaulted = sum(1 for o in outcomes if o.defaulted)
        return EngineReport(
            policy_name=self._policy.name,
            n_providers=n,
            n_violated=n_violated,
            n_defaulted=n_defaulted,
            violation_probability=(n_violated / n) if n else 0.0,
            default_probability=(n_defaulted / n) if n else 0.0,
            total_violations=sum(o.violation for o in outcomes),
            outcomes=outcomes,
        )

    def certify(self, alpha: float) -> PPDBCertificate:
        """Definition 3's alpha-PPDB certificate under the current policy.

        The certificate is derived from this engine's own evaluation state
        — the same outcomes :meth:`report` aggregates — so it always
        reflects the ``sensitivities``/``default_model`` overrides and
        ``implicit_zero`` setting in effect.  (``w_i`` itself is purely
        geometric and never depends on the weight models, but deriving
        both views from one evaluation keeps them consistent by
        construction and avoids a second pass over the population.)
        Contrast :meth:`with_population`, which deliberately *re-derives*
        the models from the new population, and the free function
        :func:`~repro.core.ppdb.certify_alpha_ppdb`, which recomputes the
        indicators from raw preferences.
        """
        alpha = check_probability(alpha, "alpha")
        outcomes = self.outcomes()
        violated = tuple(o.provider_id for o in outcomes if o.violated)
        n = len(outcomes)
        p_w = len(violated) / n if n else 0.0
        return PPDBCertificate(
            alpha=alpha,
            violation_probability=p_w,
            satisfied=p_w <= alpha,
            n_providers=n,
            violated_providers=violated,
            policy_name=self._policy.name,
        )

    def with_policy(self, policy: HousePolicy) -> "ViolationEngine":
        """A sibling engine evaluating *policy* over the same population."""
        return ViolationEngine(
            policy,
            self._population,
            sensitivities=self._sensitivities,
            default_model=self._default_model,
            implicit_zero=self._implicit_zero,
        )

    def with_population(self, population: Population) -> "ViolationEngine":
        """A sibling engine evaluating the same policy over *population*.

        The sensitivity and default models are re-derived from the new
        population (per-provider data must match the providers evaluated)
        — any overrides passed to this engine are deliberately dropped,
        because they were keyed to the old population's providers.  This
        is the opposite convention from :meth:`certify`, which sticks with
        the models in effect on this engine.
        """
        return ViolationEngine(
            self._policy,
            population,
            implicit_zero=self._implicit_zero,
        )
