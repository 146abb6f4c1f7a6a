"""The engine guardrail: detection, degradation, and correctness after."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dimensions import Dimension
from repro.core.population import Population
from repro.datasets import healthcare_scenario
from repro.perf import BatchViolationEngine, CompiledPopulation
from repro.resilience import FaultPlan, FaultSpec, GuardedBatchEngine


@pytest.fixture(scope="module")
def scenario():
    return healthcare_scenario(40, seed=11)


@pytest.fixture(scope="module")
def wide_policy(scenario):
    """A widening every provider feels (the scenario's own policy
    violates no one, so every comparison under it would be of zeros)."""
    return scenario.policy.widened(
        {
            Dimension.VISIBILITY: 1,
            Dimension.GRANULARITY: 1,
            Dimension.RETENTION: 1,
        }
    )


@pytest.fixture(scope="module")
def reference_report(scenario, wide_policy):
    report = BatchViolationEngine(scenario.population).evaluate(wide_policy)
    # The comparisons below see severities, and defaults both ways.
    assert report.total_violations > 0
    assert 0 < report.n_defaulted < report.n_providers
    return report


def _assert_oracle_report(report, expected):
    """*report* was served by the reference engine, which sums a
    provider's terms in another order than the batch engine: severities
    agree within the parity suites' tolerance, the flags exactly."""
    assert report.provider_ids == expected.provider_ids
    np.testing.assert_allclose(
        report.violations, expected.violations, rtol=1e-9, atol=1e-12
    )
    assert np.array_equal(report.violated, expected.violated)
    assert np.array_equal(report.defaulted, expected.defaulted)


class TestCleanPath:
    def test_matches_batch_engine_exactly(
        self, scenario, wide_policy, reference_report
    ):
        guarded = GuardedBatchEngine(scenario.population)
        report = guarded.evaluate(wide_policy)
        assert not guarded.degraded
        assert guarded.diagnostics == ()
        assert np.array_equal(report.violations, reference_report.violations)
        assert np.array_equal(report.defaulted, reference_report.defaulted)
        assert report.total_violations == reference_report.total_violations

    def test_certify_matches_batch(self, scenario, wide_policy, reference_report):
        guarded = GuardedBatchEngine(scenario.population)
        batch = BatchViolationEngine(scenario.population)
        for alpha in (0.0, 0.25, 1.0):
            assert guarded.certify(wide_policy, alpha) == batch.certify(
                wide_policy, alpha
            )
        assert not guarded.degraded

    def test_sampling_is_deterministic(self, scenario, wide_policy):
        a = GuardedBatchEngine(scenario.population, seed=9)
        b = GuardedBatchEngine(scenario.population, seed=9)
        a.evaluate(wide_policy)
        b.evaluate(wide_policy)
        assert a._rng.getstate() == b._rng.getstate()


class TestDegradation:
    def test_nan_poisoning_caught_and_corrected(
        self, scenario, wide_policy, reference_report
    ):
        guarded = GuardedBatchEngine(scenario.population)
        plan = FaultPlan(
            [FaultSpec(site="engine.violations", kind="nan", at=0)]
        )
        with plan.activate():
            report = guarded.evaluate(wide_policy)
        assert guarded.degraded
        assert [d.code for d in guarded.diagnostics] == ["PVL302", "PVL303"]
        # The served report carries the reference numbers, not the NaN.
        assert np.isfinite(report.violations).all()
        _assert_oracle_report(report, reference_report)

    def test_scale_divergence_caught_by_sampling(
        self, scenario, wide_policy, reference_report
    ):
        # Sample every provider so the single poisoned element is found.
        guarded = GuardedBatchEngine(
            scenario.population, sample_size=len(scenario.population)
        )
        plan = FaultPlan(
            [FaultSpec(site="engine.violations", kind="scale", at=0)]
        )
        with plan.activate():
            report = guarded.evaluate(wide_policy)
        assert guarded.degraded
        codes = [d.code for d in guarded.diagnostics]
        assert codes == ["PVL301", "PVL303"]
        _assert_oracle_report(report, reference_report)

    def test_degraded_mode_persists_and_stays_correct(
        self, scenario, wide_policy, reference_report
    ):
        guarded = GuardedBatchEngine(scenario.population)
        plan = FaultPlan(
            [FaultSpec(site="engine.violations", kind="nan", at=0)]
        )
        with plan.activate():
            guarded.evaluate(wide_policy)
        assert guarded.degraded
        # Later evaluations — fault long gone — still use the oracle and
        # still agree with the batch engine's correct output.
        again = guarded.evaluate(wide_policy)
        _assert_oracle_report(again, reference_report)
        assert len(guarded.diagnostics) == 2

    def test_certify_after_degradation_matches_reference(
        self, scenario, wide_policy, reference_report
    ):
        guarded = GuardedBatchEngine(scenario.population)
        plan = FaultPlan(
            [FaultSpec(site="engine.violations", kind="nan", at=0)]
        )
        with plan.activate():
            certificate = guarded.certify(wide_policy, 0.5)
        reference = BatchViolationEngine(scenario.population).certify(
            wide_policy, 0.5
        )
        assert guarded.degraded
        assert certificate == reference

    def test_divergence_diagnostic_payload_names_provider(
        self, scenario, wide_policy
    ):
        guarded = GuardedBatchEngine(
            scenario.population, sample_size=len(scenario.population)
        )
        plan = FaultPlan(
            [FaultSpec(site="engine.violations", kind="scale", at=0)]
        )
        with plan.activate():
            guarded.evaluate(wide_policy)
        divergence = guarded.diagnostics[0]
        assert divergence.code == "PVL301"
        assert "provider" in divergence.payload
        assert divergence.payload["batch_violation"] != pytest.approx(
            divergence.payload["reference_violation"]
        )


class TestAfterRemoval:
    """Spot checks read only the sampled providers, so a guarded round
    costs O(sample) after a removal, not a rebuild of the survivors."""

    def test_check_builds_no_population_models(
        self, scenario, wide_policy, monkeypatch
    ):
        guarded = GuardedBatchEngine(
            scenario.population, sample_size=len(scenario.population)
        )
        guarded.evaluate(wide_policy)
        removed = scenario.population.ids()[::3]
        guarded.remove(removed)

        def forbidden(*args, **kwargs):
            raise AssertionError("the guardrail rebuilt a population model")

        monkeypatch.setattr(Population, "sensitivity_model", forbidden)
        monkeypatch.setattr(Population, "default_model", forbidden)
        report = guarded.evaluate(wide_policy)
        monkeypatch.undo()
        survivors = scenario.population.without(removed)
        expected = BatchViolationEngine(
            Population(survivors.providers, survivors.attribute_sensitivities)
        ).evaluate(wide_policy)
        assert not guarded.degraded
        assert report.provider_ids == expected.provider_ids
        assert np.array_equal(report.violations, expected.violations)

    def test_guards_a_precompiled_population(self, scenario, wide_policy):
        own = scenario.population
        population = own.with_attribute_sensitivities(
            {attribute: 2.5 for attribute in own.attribute_sensitivities.as_dict()}
        )
        compiled = CompiledPopulation(population)
        guarded = GuardedBatchEngine(compiled, sample_size=len(population))
        plain = BatchViolationEngine(population)
        removed = population.ids()[::3]
        for mutate in (None, removed):
            if mutate is not None:
                guarded.remove(mutate)
                plain.remove(mutate)
            report = guarded.evaluate(wide_policy)
            expected = plain.evaluate(wide_policy)
            assert guarded.diagnostics == ()
            assert np.array_equal(report.violations, expected.violations)
            assert np.array_equal(report.defaulted, expected.defaulted)

    def test_divergence_after_removal_is_caught(self, scenario, wide_policy):
        guarded = GuardedBatchEngine(
            scenario.population, sample_size=len(scenario.population)
        )
        removed = scenario.population.ids()[::2]
        guarded.remove(removed)
        plan = FaultPlan(
            [FaultSpec(site="engine.violations", kind="scale", at=0)]
        )
        with plan.activate():
            report = guarded.evaluate(wide_policy)
        survivors = scenario.population.without(removed)
        expected = BatchViolationEngine(
            Population(survivors.providers, survivors.attribute_sensitivities)
        ).evaluate(wide_policy)
        assert [d.code for d in guarded.diagnostics] == ["PVL301", "PVL303"]
        _assert_oracle_report(report, expected)
