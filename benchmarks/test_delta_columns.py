"""Column-delta rounds: O(changed columns) vs full re-evaluation.

Consecutive widening-round policies differ in a handful of
``(attribute, purpose)`` columns, so the batch engine's delta path
recomputes only those columns and round cost scales with
``policy_delta_columns(prev, cur)`` instead of the full decomposition.

A serial scaling run at acceptance size (2000 providers, 40 rounds) —
the chained delta engine vs a fresh full evaluation per round over one
shared compilation, with per-round changed-column counts recorded so
the time-vs-delta-size scaling is visible in the BENCH record.  It
doubles as a parity check; timing without identity is noise.
Setting ``REPRO_BENCH_SMOKE=1`` shrinks the scenario so the module
doubles as a CI smoke test.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.analysis import format_table
from repro.core.dimensions import Dimension
from repro.datasets import healthcare_scenario
from repro.obs import observed
from repro.perf import (
    BatchViolationEngine,
    CompiledPopulation,
    policy_fingerprint,
)
from repro.simulation.widening import (
    WideningStep,
    policy_delta_columns,
    widen,
)

from conftest import emit, record

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
PROVIDERS = 60 if SMOKE else 2000
ROUNDS = 6 if SMOKE else 40
TIMING_REPEATS = 3
#: Ordered dimensions the round tour cycles through, one attribute at a
#: time, so each round changes a small column subset and the path stays
#: fingerprint-distinct for the whole run instead of saturating early.
TOUR_DIMENSIONS = (
    Dimension.VISIBILITY,
    Dimension.GRANULARITY,
    Dimension.RETENTION,
)


def _round_policies(scenario, rounds: int):
    """A widening tour: each round widens one attribute along one dimension.

    Cycling attribute-by-attribute (then dimension-by-dimension) keeps
    every round's delta small — one attribute's columns — while keeping
    round policies distinct far longer than a single saturating ladder
    would.  Rounds that clamp into an already-saturated corner produce a
    repeated fingerprint and are dropped; the returned path is what a
    dynamics loop would actually re-evaluate.
    """
    attributes = sorted({entry.attribute for entry in scenario.policy.entries})
    policies = [scenario.policy]
    current = scenario.policy
    step_index = 0
    while len(policies) < rounds + 1 and step_index < rounds * 6:
        attribute = attributes[step_index % len(attributes)]
        dimension = TOUR_DIMENSIONS[
            (step_index // len(attributes)) % len(TOUR_DIMENSIONS)
        ]
        step_index += 1
        candidate = widen(
            current,
            WideningStep.along(dimension, 1),
            scenario.taxonomy,
            attributes=[attribute],
            name=f"{scenario.policy.name}+r{len(policies)}",
        )
        if policy_fingerprint(candidate) == policy_fingerprint(current):
            current = candidate  # saturated corner: try the next move
            continue
        policies.append(candidate)
        current = candidate
    return policies


def test_column_delta_rounds_serial(benchmark):
    """Chained column deltas vs a full evaluation per round, one compile."""
    scenario = healthcare_scenario(PROVIDERS, seed=9)
    policies = _round_policies(scenario, ROUNDS)
    compiled = CompiledPopulation(scenario.population)
    changed_per_round = [
        len(policy_delta_columns(prev, cur))
        for prev, cur in zip(policies, policies[1:])
    ]

    def full_rounds():
        # A fresh engine per round shares the compilation but holds no
        # base: every round rescores the full decomposition.
        return [
            BatchViolationEngine(compiled).evaluate(policy)
            for policy in policies
        ]

    def delta_rounds():
        engine = BatchViolationEngine(compiled)
        timings = []
        reports = []
        for policy in policies:
            started = time.perf_counter()
            reports.append(engine.evaluate(policy))
            timings.append(time.perf_counter() - started)
        return reports, timings

    def measure():
        full_reports = full_rounds()
        full_seconds = min(
            _time(full_rounds) for _ in range(TIMING_REPEATS)
        )
        with observed() as obs:
            delta_reports, round_timings = delta_rounds()
            counters = {
                c["name"]: c["value"] for c in obs.snapshot()["counters"]
            }
        delta_seconds = min(
            _time(lambda: delta_rounds()) for _ in range(TIMING_REPEATS)
        )
        return (
            full_reports,
            full_seconds,
            delta_reports,
            delta_seconds,
            round_timings,
            counters,
        )

    def _time(run):
        started = time.perf_counter()
        run()
        return time.perf_counter() - started

    (
        full_reports,
        full_seconds,
        delta_reports,
        delta_seconds,
        round_timings,
        counters,
    ) = benchmark.pedantic(measure, rounds=1, iterations=1)

    # Timing is only meaningful if both paths produce the same rounds.
    for full, delta in zip(full_reports, delta_reports):
        assert np.array_equal(full.violations, delta.violations)
        assert full.total_violations == delta.total_violations
    assert counters["engine.batch.full_evaluations"] == 1.0
    assert counters["engine.batch.delta_evaluations"] == float(
        len(policies) - 1
    )

    rounds = len(policies) - 1
    speedup = full_seconds / delta_seconds if delta_seconds else float("inf")
    emit(
        "E10: widening rounds, full rescore per round vs column deltas "
        "(serial)",
        format_table(
            ["providers", "rounds", "cols/round", "full s", "delta s",
             "full s/round", "delta s/round", "speedup"],
            [
                [
                    PROVIDERS,
                    rounds,
                    round(sum(changed_per_round) / max(rounds, 1), 2),
                    round(full_seconds, 4),
                    round(delta_seconds, 4),
                    round(full_seconds / max(rounds, 1), 5),
                    round(delta_seconds / max(rounds, 1), 5),
                    round(speedup, 2),
                ]
            ],
        ),
    )
    record(
        "column_delta_rounds_serial",
        providers=PROVIDERS,
        rounds=rounds,
        smoke=SMOKE,
        changed_columns_per_round=changed_per_round,
        round_seconds=[round(t, 6) for t in round_timings],
        full_seconds=full_seconds,
        delta_seconds=delta_seconds,
        speedup=speedup,
    )
    if not SMOKE:
        assert delta_seconds <= full_seconds
