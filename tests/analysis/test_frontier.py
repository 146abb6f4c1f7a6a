"""Unit tests for the privacy-utility Pareto frontier."""

from __future__ import annotations

import pytest

from repro.analysis import pareto_frontier
from repro.simulation import run_expansion_sweep


@pytest.fixture(scope="module")
def sweep():
    from repro.datasets import healthcare_scenario

    scenario = healthcare_scenario(100, seed=5)
    return run_expansion_sweep(
        scenario.population,
        scenario.policy,
        scenario.taxonomy,
        max_steps=5,
        per_provider_utility=scenario.per_provider_utility,
        extra_utility_per_step=scenario.extra_utility_per_step,
    )


@pytest.fixture(scope="module")
def frontier(sweep):
    return pareto_frontier(sweep)


class TestFrontierStructure:
    def test_partition_of_steps(self, sweep, frontier):
        frontier_steps = {p.step for p in frontier.points}
        dominated = set(frontier.dominated_steps)
        assert frontier_steps | dominated == {row.step for row in sweep.rows}
        assert not frontier_steps & dominated

    def test_no_frontier_point_dominated(self, frontier):
        for a in frontier.points:
            for b in frontier.points:
                if a is b:
                    continue
                dominates = (
                    a.utility_future >= b.utility_future
                    and a.default_probability <= b.default_probability
                    and (
                        a.utility_future > b.utility_future
                        or a.default_probability < b.default_probability
                    )
                )
                assert not dominates

    def test_ordered_by_damage(self, frontier):
        damages = [p.default_probability for p in frontier.points]
        assert damages == sorted(damages)

    def test_utility_increases_along_frontier(self, frontier):
        """On a frontier of (min damage, max utility), accepting more
        damage must buy strictly more utility."""
        utilities = [p.utility_future for p in frontier.points]
        assert utilities == sorted(utilities)

    def test_baseline_is_most_private(self, frontier):
        # The anchored baseline has zero defaults, so it is undominated on
        # the damage axis.
        assert frontier.most_private().step == 0
        assert frontier.most_private().default_probability == 0.0

    def test_best_utility_matches_sweep_peak(self, sweep, frontier):
        assert frontier.best_utility().utility_future == max(
            row.utility_future for row in sweep.rows
        )

    def test_knee_on_frontier(self, frontier):
        assert frontier.knee() in frontier.points

    def test_to_text(self, frontier):
        text = frontier.to_text()
        assert "frontier" in text
        assert "P(Default)" in text


class TestFrontierEdgeCases:
    def test_single_row_sweep(self):
        from repro.datasets import crm_scenario

        scenario = crm_scenario(20, seed=1)
        sweep = run_expansion_sweep(
            scenario.population, scenario.policy, scenario.taxonomy, max_steps=0
        )
        frontier = pareto_frontier(sweep)
        assert len(frontier.points) == 1
        assert frontier.dominated_steps == ()
        assert frontier.knee() == frontier.points[0]

    def test_detrimental_tail_is_dominated(self, sweep, frontier):
        """Steps past saturation with lower utility AND equal-or-worse
        damage must be dominated."""
        last = sweep.rows[-1]
        peak = max(row.utility_future for row in sweep.rows)
        if last.utility_future < peak and any(
            row.default_probability <= last.default_probability
            and row.utility_future > last.utility_future
            for row in sweep.rows
        ):
            assert last.step in frontier.dominated_steps
