"""Delta dynamics: incremental engine vs per-round full rebuild.

Every dynamics round with departures used to recompile the whole
population.  The incremental engine tombstones departures in place, so
a 40-round churn run compiles exactly once.
This bench times both paths on the acceptance scenario (2000 providers,
40 rounds) and records per-round cost into the BENCH record; results
must also stay bit-for-bit identical, so the measurement doubles as a
parity check.

Setting ``REPRO_BENCH_SMOKE=1`` shrinks the scenario so the module
doubles as a CI smoke test.
"""

from __future__ import annotations

import os
import time

from repro.analysis import format_table
from repro.core.dimensions import Dimension
from repro.datasets import healthcare_scenario
from repro.obs import observed
from repro.perf import BatchViolationEngine
from repro.simulation import run_dynamics
from repro.simulation.dynamics import build_round_outcome, round_policy
from repro.simulation.widening import WideningStep

from conftest import emit, record

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
DELTA_PROVIDERS = 60 if SMOKE else 2000
DELTA_ROUNDS = 6 if SMOKE else 40
#: Widening visibility only keeps churn under the compaction threshold,
#: so the incremental path is pure tombstones (the acceptance shape).
STEP = WideningStep.along(Dimension.VISIBILITY, 1)
TIMING_REPEATS = 3


def _best_of(repeats: int, run) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def _rebuild_dynamics(scenario):
    """The pre-incremental loop: recompile after every departure."""
    outcomes = []
    current_population = scenario.population
    current_policy = round_policy(
        scenario.policy, scenario.policy.name, STEP, scenario.taxonomy, 0
    )
    engine = BatchViolationEngine(current_population)
    for round_index in range(DELTA_ROUNDS):
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
            current_population = current_population.without(
                outcome.defaulted_providers
            )
            engine = BatchViolationEngine(current_population)
    return outcomes


def _incremental_dynamics(scenario):
    return run_dynamics(
        scenario.population,
        scenario.policy,
        scenario.taxonomy,
        rounds=DELTA_ROUNDS,
        step=STEP,
    )


def test_delta_dynamics_vs_rebuild(benchmark):
    """Serial churn run: one compile must beat a compile per departure round."""
    scenario = healthcare_scenario(DELTA_PROVIDERS, seed=9)

    def measure():
        rebuild_outcomes = _rebuild_dynamics(scenario)
        rebuild_seconds = _best_of(
            TIMING_REPEATS, lambda: _rebuild_dynamics(scenario)
        )
        with observed() as obs:
            incremental_outcomes = _incremental_dynamics(scenario)
            counters = {
                c["name"]: c["value"] for c in obs.snapshot()["counters"]
            }
        incremental_seconds = _best_of(
            TIMING_REPEATS, lambda: _incremental_dynamics(scenario)
        )
        return (
            rebuild_outcomes,
            rebuild_seconds,
            incremental_outcomes,
            incremental_seconds,
            counters,
        )

    (
        rebuild_outcomes,
        rebuild_seconds,
        incremental_outcomes,
        incremental_seconds,
        counters,
    ) = benchmark.pedantic(measure, rounds=1, iterations=1)

    # The timing is only meaningful if both paths produce the same run.
    assert incremental_outcomes == rebuild_outcomes
    assert counters["perf.compilations"] == 1.0

    rounds = len(rebuild_outcomes)
    speedup = (
        rebuild_seconds / incremental_seconds
        if incremental_seconds
        else float("inf")
    )
    emit(
        "E7: churn dynamics, full rebuild per round vs incremental engine",
        format_table(
            ["providers", "rounds", "rebuild s", "incremental s",
             "rebuild s/round", "incremental s/round", "speedup"],
            [
                [
                    DELTA_PROVIDERS,
                    rounds,
                    round(rebuild_seconds, 4),
                    round(incremental_seconds, 4),
                    round(rebuild_seconds / rounds, 5),
                    round(incremental_seconds / rounds, 5),
                    round(speedup, 2),
                ]
            ],
        ),
    )
    record(
        "delta_dynamics",
        providers=DELTA_PROVIDERS,
        rounds=rounds,
        smoke=SMOKE,
        rebuild_seconds=rebuild_seconds,
        incremental_seconds=incremental_seconds,
        rebuild_seconds_per_round=rebuild_seconds / rounds,
        incremental_seconds_per_round=incremental_seconds / rounds,
        speedup=speedup,
        compilations=counters["perf.compilations"],
        removals=counters.get("delta.removals", 0.0),
    )
    # At full size the single-compile path must not lose to recompiling;
    # at smoke sizes only sanity (both paths agree) is held.
    if not SMOKE:
        assert incremental_seconds <= rebuild_seconds
