"""Regression: multi-round churn workloads compile exactly once.

The bug this pins down: ``run_dynamics`` (and ``play_widening_game``)
used to rebuild the whole engine — a full recompile — on every round
with departures.  The incremental engine tombstones departures in
place, so the acceptance scenario (2000 providers, 40 rounds of real
churn) performs **exactly one** full compilation, asserted through the
``perf.compilations`` counter, while remaining bit-for-bit identical to
the rebuild path.
"""

from __future__ import annotations

import pytest

from repro.core import Population
from repro.core.dimensions import Dimension
from repro.obs import observed
from repro.perf import BatchViolationEngine
from repro.simulation import run_dynamics
from repro.simulation.dynamics import build_round_outcome, round_policy
from repro.simulation.widening import WideningStep

N_PROVIDERS = 2000
ROUNDS = 40
# Widening visibility only keeps total churn well under the 50%
# compaction threshold (~23% of the population departs over the run),
# so every round's departures stay pure tombstones.
STEP = WideningStep.along(Dimension.VISIBILITY, 1)


@pytest.fixture(scope="module")
def scenario():
    from repro.datasets import healthcare_scenario

    return healthcare_scenario(N_PROVIDERS, seed=9)


def _store_less(population: Population) -> Population:
    """*population*'s providers and Sigma, compiled by walking them."""
    return Population(population.providers, population.attribute_sensitivities)


def _rebuild_path_dynamics(scenario):
    """The pre-incremental behaviour: recompile after every departure.

    Uses plain batch engines and rebuilds on each round with defaults —
    the loop :func:`run_dynamics` ran before the incremental engine
    existed.  This is the oracle the incremental path must match bit
    for bit.  Every population it compiles is built store-less, so each
    compile walks the providers rather than cutting the generated
    population's store.
    """
    outcomes = []
    current_population = _store_less(scenario.population)
    current_policy = round_policy(
        scenario.policy, scenario.policy.name, STEP, scenario.taxonomy, 0
    )
    engine = BatchViolationEngine(current_population)
    for round_index in range(ROUNDS):
        if len(current_population) == 0:
            break
        if round_index > 0:
            current_policy = round_policy(
                current_policy,
                scenario.policy.name,
                STEP,
                scenario.taxonomy,
                round_index,
            )
        report = engine.evaluate(current_policy)
        outcome = build_round_outcome(
            report,
            round_index=round_index,
            per_provider_utility=1.0,
            extra_utility_per_round=0.25,
        )
        outcomes.append(outcome)
        if outcome.defaulted_providers:
            current_population = _store_less(
                current_population.without(outcome.defaulted_providers)
            )
            engine = BatchViolationEngine(current_population)
    return outcomes


@pytest.fixture(scope="module")
def rebuild_outcomes(scenario):
    return _rebuild_path_dynamics(scenario)


def _counters(snapshot):
    return {c["name"]: c["value"] for c in snapshot["counters"]}


def test_churn_scenario_actually_churns(rebuild_outcomes):
    """Guard the fixture: a no-default scenario would make the
    exactly-one-compile assertion vacuous."""
    departed = sum(o.n_defaulted for o in rebuild_outcomes)
    rounds_with_departures = sum(
        1 for o in rebuild_outcomes if o.n_defaulted
    )
    assert len(rebuild_outcomes) == ROUNDS
    assert departed >= N_PROVIDERS // 10
    assert rounds_with_departures >= 3
    # ... but below the compaction threshold, so tombstones suffice.
    assert departed < N_PROVIDERS // 2


def test_run_dynamics_compiles_exactly_once(scenario, rebuild_outcomes):
    with observed() as obs:
        outcomes = run_dynamics(
            scenario.population,
            scenario.policy,
            scenario.taxonomy,
            rounds=ROUNDS,
            step=STEP,
        )
        counters = _counters(obs.snapshot())
    assert counters["perf.compilations"] == 1.0
    assert counters.get("delta.compactions", 0.0) == 0.0
    assert counters["delta.removals"] == float(
        sum(o.n_defaulted for o in rebuild_outcomes)
    )
    assert counters["delta.reused"] > 0.0
    assert outcomes == rebuild_outcomes


def test_widening_game_compiles_exactly_once(scenario):
    from repro.game import FixedWidening, play_widening_game

    strategy = FixedWidening(STEP, 8)
    with observed() as obs:
        trace = play_widening_game(
            scenario.population,
            scenario.policy,
            scenario.taxonomy,
            strategy,
        )
        counters = _counters(obs.snapshot())
    assert counters["perf.compilations"] == 1.0
    assert any(r.n_defaulted for r in trace.rounds)
