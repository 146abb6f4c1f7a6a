"""The engine guardrail: spot-check the fast path, degrade to the oracle.

:class:`~repro.perf.batch.BatchViolationEngine` is two orders of
magnitude faster than the reference :class:`~repro.core.engine.
ViolationEngine`, but a certificate built on a silently-wrong severity
array is worse than a slow one.  :class:`GuardedBatchEngine` wraps the
batch engine and, on every evaluation,

1. rejects any report with **non-finite** severities or aggregates
   (``PVL302``);
2. **samples** a seeded handful of providers and recomputes their
   severity, violated flag, and default verdict through the per-provider
   reference path (:func:`~repro.core.violation.find_violations`) —
   any disagreement beyond tolerance is a divergence (``PVL301``).

On the first failed check the guardrail *degrades*: it emits a
``PVL303`` warning, discards the batch result, and serves this and every
later evaluation from the reference engine.  The run completes with
correct numbers on the slow path, and the structured diagnostics (the
same :class:`~repro.lint.diagnostics.Diagnostic` shape the static
analyzer emits) record exactly what was caught and where.

The sampling oracle is deliberately *not* the batch engine's own parity
harness: it recomputes from the population's raw preferences and
sensitivities, sharing no intermediate state with the code under guard.
The wrapped engine is a :class:`~repro.perf.batch.BatchViolationEngine`,
whose ``remove`` tombstones departures in place, so a guarded dynamics
run compiles once like an unguarded one.
"""

from __future__ import annotations

import random

import numpy as np

from ..core.default import DefaultModel
from ..core.engine import ViolationEngine
from ..core.policy import HousePolicy
from ..core.population import Population
from ..core.ppdb import PPDBCertificate
from ..core.sensitivity import SensitivityModel
from ..core.violation import find_violations
from ..lint.diagnostics import Diagnostic
from ..obs import active_observer
from ..perf.batch import BatchReport, BatchViolationEngine
from .diagnostics import (
    GUARDRAIL_DEGRADED,
    GUARDRAIL_DIVERGENCE,
    GUARDRAIL_NONFINITE,
    guardrail_diagnostic,
)
from .faults import active_plan

#: Default number of providers spot-checked per evaluation.
SAMPLE_SIZE = 4

#: Absolute severity tolerance for a sampled comparison.  The batch and
#: reference engines are bit-for-bit equal by the parity suite, so any
#: nonzero drift is already suspicious; the tolerance only forgives
#: benign float-summation reordering.
SEVERITY_TOLERANCE = 1e-9


class GuardedBatchEngine:
    """A :class:`BatchViolationEngine` with an oracle safety net.

    Drop-in for the batch engine's ``evaluate``/``report``/``certify``
    surface.  Checks are deterministic: the provider sample is drawn
    from ``random.Random(seed)``, so a given workload always spot-checks
    the same rows.

    After a check fails the engine is *degraded* (see :attr:`degraded`):
    all subsequent evaluations use the reference engine, and
    :attr:`diagnostics` carries the structured findings.
    """

    def __init__(
        self,
        population: Population,
        *,
        sensitivities: SensitivityModel | None = None,
        default_model: DefaultModel | None = None,
        implicit_zero: bool = True,
        sample_size: int = SAMPLE_SIZE,
        tolerance: float = SEVERITY_TOLERANCE,
        seed: int = 0,
    ) -> None:
        self._batch = BatchViolationEngine(
            population,
            sensitivities=sensitivities,
            default_model=default_model,
            implicit_zero=implicit_zero,
        )
        self._sample_size = int(sample_size)
        self._tolerance = float(tolerance)
        self._rng = random.Random(seed)
        self._degraded = False
        self._diagnostics: list[Diagnostic] = []

    # -- state ---------------------------------------------------------------

    @property
    def population(self) -> Population:
        """The underlying population."""
        return self._batch.population

    @property
    def implicit_zero(self) -> bool:
        """Whether the implicit-zero completion is applied."""
        return self._batch.implicit_zero

    @property
    def degraded(self) -> bool:
        """True once any evaluation has fallen back to the reference engine."""
        return self._degraded

    @property
    def diagnostics(self) -> tuple[Diagnostic, ...]:
        """Structured findings from every failed check so far."""
        return tuple(self._diagnostics)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release the wrapped engine."""
        self._batch.close()

    def __enter__(self) -> "GuardedBatchEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- mutation ------------------------------------------------------------

    def remove(self, provider_ids) -> None:
        """Tombstone departed providers in the wrapped engine.

        Delegates to :meth:`~repro.perf.batch.BatchViolationEngine.remove`;
        subsequent evaluations (and degraded-mode reference evaluations,
        which read :attr:`population`) see only the survivors.
        """
        self._batch.remove(provider_ids)

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, policy: HousePolicy) -> BatchReport:
        """Evaluate *policy*, spot-checked; degraded mode uses the oracle."""
        obs = active_observer()
        if self._degraded:
            if obs is not None:
                obs.inc("guardrail.reference_evaluations")
            return self._reference_report(policy)
        report = self._batch.evaluate(policy)
        plan = active_plan()
        if plan is not None:
            poisoned = plan.poison_array("engine.violations", report.violations)
            if poisoned is not report.violations:
                report = self._repoison(report, poisoned)
        failure = self._check(policy, report)
        if obs is not None:
            obs.inc("guardrail.checks")
        if failure is None:
            return report
        self._degrade(policy, failure)
        if obs is not None:
            obs.inc("guardrail.reference_evaluations")
        return self._reference_report(policy)

    # ``report`` mirrors the batch engine's alias.
    def report(self, policy: HousePolicy) -> BatchReport:
        """Alias of :meth:`evaluate`."""
        return self.evaluate(policy)

    def certify(self, policy: HousePolicy, alpha: float) -> PPDBCertificate:
        """Definition 3's alpha-PPDB certificate, from a guarded evaluation.

        The certificate is always derived from a report that passed (or
        was replaced after failing) the guardrail checks — never from an
        unchecked fast-path evaluation.
        """
        self.evaluate(policy)
        if self._degraded:
            return self._reference_engine(policy).certify(alpha)
        return self._batch.certify(policy, alpha)

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _repoison(report: BatchReport, violations: np.ndarray) -> BatchReport:
        """Rebuild a report around a fault-poisoned severity array.

        Only the severity array and its dependent aggregate are replaced;
        the boolean views keep their pre-poisoning values, exactly like a
        kernel bug that mangles one output array but not the others.
        """
        return BatchReport(
            policy_name=report.policy_name,
            n_providers=report.n_providers,
            n_violated=report.n_violated,
            n_defaulted=report.n_defaulted,
            violation_probability=report.violation_probability,
            default_probability=report.default_probability,
            total_violations=float(np.sum(violations)),
            provider_ids=report.provider_ids,
            violations=violations,
            violated=report.violated,
            defaulted=report.defaulted,
            thresholds=report.thresholds,
            segments=report.segments,
        )

    def _check(
        self, policy: HousePolicy, report: BatchReport
    ) -> Diagnostic | None:
        """Run the guardrail checks; the first failure's diagnostic, or None."""
        if report.n_providers == 0:
            return None
        if not (
            np.isfinite(report.violations).all()
            and np.isfinite(report.total_violations)
        ):
            bad = [
                report.provider_ids[row]
                for row in np.flatnonzero(~np.isfinite(report.violations))
            ]
            return guardrail_diagnostic(
                GUARDRAIL_NONFINITE,
                f"batch engine produced non-finite severities under policy "
                f"{report.policy_name!r}",
                policy_name=report.policy_name,
                payload={"providers": [repr(pid) for pid in bad[:8]]},
            )
        compiled = self._batch.compiled
        sensitivities = compiled.sensitivities
        default_model = compiled.default_model
        providers = self.population.providers
        n = len(providers)
        rows = self._sample_rows(n)
        for row in rows:
            provider = providers[row]
            findings = find_violations(
                provider.preferences,
                policy,
                sensitivities,
                implicit_zero=self._batch.implicit_zero,
            )
            violation = sum(finding.weighted for finding in findings)
            violated = bool(findings)
            defaulted = bool(
                default_model.defaults(provider.provider_id, violation)
            )
            batch_violation = float(report.violations[row])
            if (
                abs(batch_violation - violation) > self._tolerance
                or bool(report.violated[row]) != violated
                or bool(report.defaulted[row]) != defaulted
            ):
                return guardrail_diagnostic(
                    GUARDRAIL_DIVERGENCE,
                    f"batch engine diverged from the reference oracle for "
                    f"provider {provider.provider_id!r} under policy "
                    f"{report.policy_name!r}: severity {batch_violation!r} "
                    f"vs {violation!r}",
                    policy_name=report.policy_name,
                    payload={
                        "provider": repr(provider.provider_id),
                        "batch_violation": batch_violation,
                        "reference_violation": violation,
                    },
                )
        return None

    def _sample_rows(self, n: int) -> list[int]:
        """The provider rows this evaluation spot-checks, in check order.

        Drawn from the engine's one stateful RNG, so a seeded workload
        always checks the same rows.
        """
        return sorted(self._rng.sample(range(n), min(self._sample_size, n)))

    def _degrade(self, policy: HousePolicy, failure: Diagnostic) -> None:
        self._degraded = True
        obs = active_observer()
        if obs is not None:
            obs.inc("guardrail.failures", code=failure.code)
            obs.inc("guardrail.degradations")
        self._diagnostics.append(failure)
        self._diagnostics.append(
            guardrail_diagnostic(
                GUARDRAIL_DEGRADED,
                f"degrading to the reference engine from policy "
                f"{policy.name!r} onward after {failure.code}",
                policy_name=policy.name,
                payload={"trigger": failure.code},
            )
        )

    def _reference_engine(self, policy: HousePolicy) -> ViolationEngine:
        return self._batch.reference_engine(policy)

    def _reference_report(self, policy: HousePolicy) -> BatchReport:
        """A :class:`BatchReport` computed wholly by the reference engine."""
        engine = self._reference_engine(policy)
        outcomes = engine.outcomes()
        summary = engine.report()
        return BatchReport(
            policy_name=summary.policy_name,
            n_providers=summary.n_providers,
            n_violated=summary.n_violated,
            n_defaulted=summary.n_defaulted,
            violation_probability=summary.violation_probability,
            default_probability=summary.default_probability,
            total_violations=summary.total_violations,
            provider_ids=tuple(outcome.provider_id for outcome in outcomes),
            violations=np.array(
                [outcome.violation for outcome in outcomes], dtype=np.float64
            ),
            violated=np.array(
                [outcome.violated for outcome in outcomes], dtype=bool
            ),
            defaulted=np.array(
                [outcome.defaulted for outcome in outcomes], dtype=bool
            ),
            thresholds=np.array(
                [outcome.threshold for outcome in outcomes], dtype=np.float64
            ),
            segments=tuple(outcome.segment for outcome in outcomes),
        )
