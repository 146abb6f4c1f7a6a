"""One-shot what-if analysis of a candidate policy.

Section 10: "It is also possible to develop 'what if' scenarios that
modify a house's privacy policies with respect to data provider default."
The :class:`WhatIfAnalyzer` holds a fixed population and baseline policy
and answers, for any candidate policy: how do ``P(W)``, ``P(Default)``,
severity, the alpha-PPDB verdict, and the Section 9 utilities move?
"""

from __future__ import annotations

from dataclasses import dataclass

from .._validation import check_probability, check_real
from ..core.economics import ExpansionAssessment
from ..core.engine import EngineReport
from ..core.policy import HousePolicy
from ..core.population import Population
from ..core.ppdb import PPDBCertificate
from ..perf import BatchReport, BatchViolationEngine, batch_assess_expansion


@dataclass(frozen=True, slots=True)
class WhatIfResult:
    """A candidate policy's full consequences, next to the baseline."""

    baseline: EngineReport | BatchReport
    candidate: EngineReport | BatchReport
    assessment: ExpansionAssessment
    certificate: PPDBCertificate

    @property
    def violation_probability_delta(self) -> float:
        """Candidate minus baseline ``P(W)``."""
        return (
            self.candidate.violation_probability
            - self.baseline.violation_probability
        )

    @property
    def default_probability_delta(self) -> float:
        """Candidate minus baseline ``P(Default)``."""
        return (
            self.candidate.default_probability
            - self.baseline.default_probability
        )

    @property
    def severity_delta(self) -> float:
        """Candidate minus baseline total ``Violations`` (Eq. 16)."""
        return self.candidate.total_violations - self.baseline.total_violations

    def summary(self) -> str:
        """A one-paragraph human-readable verdict."""
        direction = "justified" if self.assessment.justified else "not justified"
        ppdb = "holds" if self.certificate.satisfied else "fails"
        return (
            f"Candidate {self.candidate.policy_name!r}: "
            f"P(W) {self.baseline.violation_probability:.3f} -> "
            f"{self.candidate.violation_probability:.3f}, "
            f"P(Default) {self.baseline.default_probability:.3f} -> "
            f"{self.candidate.default_probability:.3f}, "
            f"utility {self.assessment.utility_current:g} -> "
            f"{self.assessment.utility_future:g} ({direction}); "
            f"alpha-PPDB at alpha={self.certificate.alpha:g} {ppdb}."
        )


class WhatIfAnalyzer:
    """Evaluate candidate policies against one fixed population.

    Parameters
    ----------
    population:
        The providers being protected.
    baseline_policy:
        The house's current policy (evaluated once, cached).
    per_provider_utility:
        Section 9's ``U``.
    alpha:
        Definition 3's threshold for the candidate's certificate.
    """

    def __init__(
        self,
        population: Population,
        baseline_policy: HousePolicy,
        *,
        per_provider_utility: float = 1.0,
        alpha: float = 0.1,
    ) -> None:
        self._per_provider_utility = check_real(
            per_provider_utility, "per_provider_utility", minimum=0.0
        )
        self._alpha = check_probability(alpha, "alpha")
        # One compiled population serves every candidate; the batch
        # engine's report cache means asking about the same candidate
        # twice (or needing both the report and the certificate, as
        # ``assess`` does) evaluates the model once.
        self._engine = BatchViolationEngine(population)
        self._baseline_report = self._engine.evaluate(baseline_policy)

    @property
    def baseline_report(self) -> BatchReport:
        """The cached baseline evaluation."""
        return self._baseline_report

    def assess(
        self, candidate: HousePolicy, extra_utility: float
    ) -> WhatIfResult:
        """Evaluate *candidate* end-to-end.

        *extra_utility* is Section 9's ``T`` — the additional per-provider
        utility the candidate would unlock.
        """
        candidate_report = self._engine.evaluate(candidate)
        assessment = batch_assess_expansion(
            candidate_report,
            self._per_provider_utility,
            extra_utility,
        )
        certificate = self._engine.certify(candidate, self._alpha)
        return WhatIfResult(
            baseline=self._baseline_report,
            candidate=candidate_report,
            assessment=assessment,
            certificate=certificate,
        )
