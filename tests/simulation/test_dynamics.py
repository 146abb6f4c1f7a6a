"""Unit tests for the multi-round default dynamics."""

from __future__ import annotations

import pytest

from repro.simulation import run_dynamics
from repro.simulation.dynamics import surviving_ids


@pytest.fixture(scope="module")
def scenario():
    from repro.datasets import healthcare_scenario

    return healthcare_scenario(80, seed=5)


@pytest.fixture(scope="module")
def outcomes(scenario):
    return run_dynamics(
        scenario.population,
        scenario.policy,
        scenario.taxonomy,
        rounds=6,
        per_provider_utility=scenario.per_provider_utility,
        extra_utility_per_round=scenario.extra_utility_per_step,
    )


class TestDynamicsStructure:
    def test_round_zero_is_base_policy(self, outcomes):
        assert outcomes[0].round_index == 0
        assert outcomes[0].policy_name.endswith("@r0")

    def test_population_non_increasing(self, outcomes):
        remaining = [o.n_remaining for o in outcomes]
        assert remaining == sorted(remaining, reverse=True)

    def test_rounds_chain_populations(self, outcomes):
        for previous, current in zip(outcomes, outcomes[1:]):
            assert current.n_start == previous.n_remaining

    def test_departures_are_permanent(self, outcomes):
        seen: set = set()
        for outcome in outcomes:
            departed = set(outcome.defaulted_providers)
            assert not departed & seen
            seen |= departed

    def test_retention_rate(self, outcomes):
        for outcome in outcomes:
            expected = (
                outcome.n_remaining / outcome.n_start
                if outcome.n_start
                else 1.0
            )
            assert outcome.retention_rate == pytest.approx(expected)

    def test_baseline_round_has_no_defaults(self, outcomes):
        # Anchored scenario: the base policy violates nobody.
        assert outcomes[0].n_defaulted == 0


class TestDynamicsVsStaticSweep:
    def test_total_defaults_bounded_by_static_sweep(self, scenario, outcomes):
        """Path dependence: dynamics can never lose more providers than the
        static sweep at the same widening level, because severities are
        evaluated on the same policies and departures only remove providers.
        """
        from repro.simulation import run_expansion_sweep

        sweep = run_expansion_sweep(
            scenario.population,
            scenario.policy,
            scenario.taxonomy,
            max_steps=len(outcomes) - 1,
        )
        dynamic_total = sum(o.n_defaulted for o in outcomes)
        static_total = sweep.rows[-1].n_current - sweep.rows[-1].n_future
        assert dynamic_total == static_total

    def test_surviving_ids_complement_departures(self, scenario, outcomes):
        survivors = set(surviving_ids(outcomes, scenario.population))
        departed = {
            pid for o in outcomes for pid in o.defaulted_providers
        }
        assert survivors | departed == set(scenario.population.ids())
        assert not survivors & departed


class TestDynamicsEdgeCases:
    def test_single_round(self, scenario):
        outcomes = run_dynamics(
            scenario.population, scenario.policy, scenario.taxonomy, rounds=1
        )
        assert len(outcomes) == 1

    def test_invalid_rounds_rejected(self, scenario):
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError):
            run_dynamics(
                scenario.population, scenario.policy, scenario.taxonomy, rounds=0
            )

    def test_utility_formula(self, outcomes, scenario):
        for outcome in outcomes:
            expected = outcome.n_remaining * (
                scenario.per_provider_utility
                + scenario.extra_utility_per_step * outcome.round_index
            )
            assert outcome.utility == pytest.approx(expected)

    def test_empty_population_has_no_rounds(self, scenario):
        from repro.core import Population

        empty = Population([], scenario.population.attribute_sensitivities)
        assert run_dynamics(empty, scenario.policy, scenario.taxonomy, rounds=3) == []

    def test_everyone_defaulting_in_round_zero_ends_the_run(self):
        import dataclasses

        from repro.core import Population
        from repro.datasets import healthcare_scenario
        from repro.simulation import WideningStep
        from repro.simulation.widening import widen

        scenario = healthcare_scenario(60, seed=5)
        intolerant = Population(
            [dataclasses.replace(p, threshold=0.0) for p in scenario.population],
            scenario.population.attribute_sensitivities,
        )
        wide = widen(scenario.policy, WideningStep.uniform(10), scenario.taxonomy)
        outcomes = run_dynamics(intolerant, wide, scenario.taxonomy, rounds=5)
        assert [(o.n_start, o.n_defaulted, o.n_remaining) for o in outcomes] == [
            (60, 60, 0)
        ]
