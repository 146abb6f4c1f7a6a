"""Unit tests for expansion sweeps (the Section 9 engine)."""

from __future__ import annotations

import pytest

from repro.core import Dimension, ViolationEngine
from repro.simulation import WideningStep, run_expansion_sweep, widening_path


@pytest.fixture(scope="module")
def sweep(request):
    from repro.datasets import healthcare_scenario

    scenario = healthcare_scenario(80, seed=5)
    return run_expansion_sweep(
        scenario.population,
        scenario.policy,
        scenario.taxonomy,
        max_steps=5,
        per_provider_utility=scenario.per_provider_utility,
        extra_utility_per_step=scenario.extra_utility_per_step,
        scenario_name="test-sweep",
    )


class TestSweepStructure:
    def test_row_count(self, sweep):
        assert len(sweep.rows) == 6

    def test_step_zero_is_clean_baseline(self, sweep):
        base = sweep.rows[0]
        assert base.step == 0
        assert base.violation_probability == 0.0
        assert base.default_probability == 0.0
        assert base.n_future == base.n_current
        assert base.utility_future == base.utility_current

    def test_n_current_constant(self, sweep):
        assert len({row.n_current for row in sweep.rows}) == 1

    def test_extra_utility_linear_in_step(self, sweep):
        for row in sweep.rows:
            assert row.extra_utility == pytest.approx(
                sweep.extra_utility_per_step * row.step
            )

    def test_policy_names_carry_step(self, sweep):
        assert all(
            row.policy_name.endswith(f"+{row.step}") for row in sweep.rows
        )


class TestSweepMonotonicity:
    def test_violation_probability_non_decreasing(self, sweep):
        probabilities = [row.violation_probability for row in sweep.rows]
        assert probabilities == sorted(probabilities)

    def test_default_probability_non_decreasing(self, sweep):
        probabilities = [row.default_probability for row in sweep.rows]
        assert probabilities == sorted(probabilities)

    def test_total_violations_non_decreasing(self, sweep):
        severities = [row.total_violations for row in sweep.rows]
        assert severities == sorted(severities)

    def test_n_future_non_increasing(self, sweep):
        futures = [row.n_future for row in sweep.rows]
        assert futures == sorted(futures, reverse=True)

    def test_break_even_non_decreasing(self, sweep):
        thresholds = [row.break_even_extra_utility for row in sweep.rows]
        assert thresholds == sorted(thresholds)


class TestSweepQueries:
    def test_best_step_maximizes_future_utility(self, sweep):
        best = sweep.best_step()
        assert best.utility_future == max(
            row.utility_future for row in sweep.rows
        )

    def test_crossover_is_first_detrimental_step(self, sweep):
        crossover = sweep.crossover_step()
        base = sweep.rows[0].utility_current
        if crossover is not None:
            for row in sweep.rows[1:]:
                if row.step < crossover:
                    assert row.utility_future >= base
                if row.step == crossover:
                    assert row.utility_future < base

    def test_default_counts_match_rows(self, sweep):
        counts = sweep.default_counts()
        for row, count in zip(sweep.rows, counts):
            assert count == row.n_current - row.n_future

    def test_series_extraction(self, sweep):
        series = sweep.series("violation_probability")
        assert series == tuple(
            row.violation_probability for row in sweep.rows
        )

    def test_justified_matches_breakeven(self, sweep):
        for row in sweep.rows:
            assert row.justified == (
                row.extra_utility > row.break_even_extra_utility
            )


class TestSweepShape:
    def test_rise_then_fall(self, sweep):
        """The paper's E4 claim: utility rises before it falls."""
        utilities = [row.utility_future for row in sweep.rows]
        peak_index = utilities.index(max(utilities))
        assert peak_index >= 1  # widening pays at first...
        assert utilities[-1] < max(utilities)  # ...but not forever

    def test_crossover_exists(self, sweep):
        assert sweep.crossover_step() is not None


class TestSweepOptions:
    def test_custom_step(self, small_crm):
        sweep = run_expansion_sweep(
            small_crm.population,
            small_crm.policy,
            small_crm.taxonomy,
            step=WideningStep.along(Dimension.RETENTION),
            max_steps=2,
        )
        assert len(sweep.rows) == 3

    def test_sweep_does_not_mutate_population(self, small_crm):
        before = ViolationEngine(
            small_crm.policy, small_crm.population
        ).report()
        run_expansion_sweep(
            small_crm.population,
            small_crm.policy,
            small_crm.taxonomy,
            max_steps=3,
        )
        after = ViolationEngine(small_crm.policy, small_crm.population).report()
        assert before.total_violations == after.total_violations

    def test_zero_steps(self, small_crm):
        sweep = run_expansion_sweep(
            small_crm.population,
            small_crm.policy,
            small_crm.taxonomy,
            max_steps=0,
        )
        assert len(sweep.rows) == 1


class TestOneShotScope:
    """A generator scope widens every level, exactly as a tuple scope does."""

    @pytest.fixture(scope="class")
    def scenario(self):
        from repro.datasets import healthcare_scenario

        return healthcare_scenario(60, seed=3)

    def test_widening_path(self, scenario):
        def path(attributes):
            return [
                policy.entries
                for _, policy in widening_path(
                    scenario.policy,
                    WideningStep.uniform(1),
                    scenario.taxonomy,
                    4,
                    attributes=attributes,
                )
            ]

        expected = path(("diagnosis",))
        assert expected[2] != expected[1]  # the scope still widens at level 2
        assert path(iter(("diagnosis",))) == expected

    def test_run_expansion_sweep(self, scenario):
        def sweep(attributes):
            return run_expansion_sweep(
                scenario.population,
                scenario.policy,
                scenario.taxonomy,
                max_steps=4,
                attributes=attributes,
            )

        assert sweep(iter(("diagnosis",))).rows == sweep(("diagnosis",)).rows
