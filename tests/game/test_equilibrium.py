"""Unit tests for the iterated widening game and best response."""

from __future__ import annotations

import pytest

from repro.game import (
    CautiousHouse,
    FixedWidening,
    GreedyWidening,
    best_response,
    play_widening_game,
)
from repro.simulation import WideningStep


@pytest.fixture(scope="module")
def scenario():
    from repro.datasets import crm_scenario

    return crm_scenario(100, seed=3)


def _play(scenario, strategy):
    return play_widening_game(
        scenario.population,
        scenario.policy,
        scenario.taxonomy,
        strategy,
        per_provider_utility=scenario.per_provider_utility,
        extra_utility_per_round=scenario.extra_utility_per_step,
    )


class TestGamePlay:
    def test_empty_population_has_no_rounds(self, scenario):
        from repro.core import Population

        empty = Population([], scenario.population.attribute_sensitivities)
        trace = play_widening_game(
            empty,
            scenario.policy,
            scenario.taxonomy,
            FixedWidening(WideningStep.uniform(1), 3),
        )
        assert trace.rounds == ()
        assert not trace.stopped_by_strategy

    def test_everyone_defaulting_in_round_zero_ends_the_game(self):
        import dataclasses

        from repro.core import Population
        from repro.datasets import crm_scenario
        from repro.simulation.widening import widen

        scenario = crm_scenario(60, seed=5)
        intolerant = Population(
            [dataclasses.replace(p, threshold=0.0) for p in scenario.population],
            scenario.population.attribute_sensitivities,
        )
        wide = widen(scenario.policy, WideningStep.uniform(10), scenario.taxonomy)
        proposals = []

        class Recording(FixedWidening):
            def propose(self, history):
                proposals.append(len(history))
                return super().propose(history)

        trace = play_widening_game(
            intolerant,
            wide,
            scenario.taxonomy,
            Recording(WideningStep.uniform(1), 3),
        )
        assert [(r.n_start, r.n_defaulted, r.n_remaining) for r in trace.rounds] == [
            (60, 60, 0)
        ]
        # The strategy is still consulted after the last round, and the
        # game ends on the empty population, not on the strategy.
        assert proposals == [1]
        assert not trace.stopped_by_strategy

    def test_fixed_strategy_round_count(self, scenario):
        trace = _play(scenario, FixedWidening(WideningStep.uniform(1), 3))
        assert [r.round_index for r in trace.rounds] == [0, 1, 2, 3]
        assert trace.stopped_by_strategy

    def test_round_zero_uses_base_policy(self, scenario):
        trace = _play(scenario, FixedWidening(WideningStep.uniform(1), 1))
        assert trace.rounds[0].policy_name.endswith("@g0")

    def test_population_chains(self, scenario):
        trace = _play(scenario, FixedWidening(WideningStep.uniform(1), 4))
        for previous, current in zip(trace.rounds, trace.rounds[1:]):
            assert current.n_start == previous.n_remaining

    def test_greedy_stops_after_first_drop(self, scenario):
        trace = _play(scenario, GreedyWidening(WideningStep.uniform(1)))
        utilities = [r.utility for r in trace.rounds]
        # Every round but the last must be >= its predecessor; the last is
        # the overshoot that triggered the stop (or the cap).
        for before, after in zip(utilities[:-2], utilities[1:-1]):
            assert after >= before
        assert trace.stopped_by_strategy

    def test_cautious_respects_budget(self, scenario):
        trace = _play(
            scenario,
            CautiousHouse(WideningStep.uniform(1), attrition_budget=0.1),
        )
        initial = trace.rounds[0].n_start
        # Every round the strategy *chose to continue from* was within
        # budget; the final round may overshoot (that is why it stopped).
        for game_round in trace.rounds[:-1]:
            lost = initial - game_round.n_remaining
            assert lost / initial <= 0.1 or game_round is trace.rounds[-1]

    def test_total_defaults(self, scenario):
        trace = _play(scenario, FixedWidening(WideningStep.uniform(1), 5))
        assert trace.total_defaults() == (
            trace.rounds[0].n_start - trace.rounds[-1].n_remaining
        )

    def test_peak_and_equilibrium_rounds(self, scenario):
        trace = _play(scenario, FixedWidening(WideningStep.uniform(1), 6))
        peak = trace.peak_utility_round()
        assert peak.utility == max(r.utility for r in trace.rounds)
        equilibrium = trace.equilibrium_round()
        assert equilibrium.utility == peak.utility


class TestBestResponse:
    def test_best_response_maximizes_sweep(self, scenario):
        response = best_response(
            scenario.population,
            scenario.policy,
            scenario.taxonomy,
            max_steps=6,
            per_provider_utility=scenario.per_provider_utility,
            extra_utility_per_step=scenario.extra_utility_per_step,
        )
        assert response.row.utility_future == max(
            row.utility_future for row in response.sweep.rows
        )

    def test_best_response_vs_greedy_myopia(self, scenario):
        """Full information weakly beats myopic play."""
        response = best_response(
            scenario.population,
            scenario.policy,
            scenario.taxonomy,
            max_steps=6,
            per_provider_utility=scenario.per_provider_utility,
            extra_utility_per_step=scenario.extra_utility_per_step,
        )
        trace = _play(scenario, GreedyWidening(WideningStep.uniform(1)))
        assert response.row.utility_future >= trace.equilibrium_round().utility

    def test_stays_at_base_when_widening_never_pays(self, scenario):
        response = best_response(
            scenario.population,
            scenario.policy,
            scenario.taxonomy,
            max_steps=4,
            per_provider_utility=scenario.per_provider_utility,
            extra_utility_per_step=0.0,  # widening yields nothing
        )
        assert response.stays_at_base

    def test_str_rendering(self, scenario):
        response = best_response(
            scenario.population, scenario.policy, scenario.taxonomy, max_steps=2
        )
        assert "best response" in str(response)
