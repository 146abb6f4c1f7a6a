"""E7 — engineering scaling: the model is linear in providers x tuples.

The paper positions the model as deployable inside production relational
databases, so the harness verifies the computational story: full-model
evaluation scales linearly in the number of providers (R^2 of a linear fit
over a size sweep), the vectorized batch engine beats the reference
engine by an order of magnitude on policy sweeps, and the sqlite gate's
per-request overhead stays flat as the data table grows.

Setting ``REPRO_BENCH_SMOKE=1`` shrinks every size so the module doubles
as a CI smoke test: the same code paths run, but the speedup floor is
relaxed (tiny problems are dominated by fixed overheads).
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.analysis import format_table
from repro.core import PrivacyTuple, ViolationEngine
from repro.datasets import healthcare_scenario
from repro.perf import BatchViolationEngine
from repro.simulation import WideningStep, widening_policies
from repro.storage import AccessRequest, EnforcementMode, PrivacyDatabase

from conftest import emit, record

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
SIZES = (20, 40) if SMOKE else (50, 100, 200, 400, 800)
SWEEP_PROVIDERS = 40 if SMOKE else 400
SWEEP_POLICIES = 20
#: Best-of-k repeats for every timing: robust against scheduler noise.
TIMING_REPEATS = 3
# Acceptance floor: >= 10x on the full-size sweep.  At smoke sizes the
# fixed per-call overhead dominates, so only sanity (not slower) is held.
MIN_SWEEP_SPEEDUP = 1.0 if SMOKE else 10.0

def _best_of(repeats: int, run) -> float:
    """Best-of-*repeats* wall time of ``run()`` (fresh state per repeat)."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def _round_robin_best(scenarios, repeats: int) -> list[float]:
    """Best-of-*repeats* reference evaluation time per scenario.

    The repeats run round-robin across the scenarios, so a slow spell of
    the host reaches every size instead of all repeats of one.
    """
    best = [float("inf")] * len(scenarios)
    for _ in range(repeats):
        for i, scenario in enumerate(scenarios):
            started = time.perf_counter()
            ViolationEngine(scenario.policy, scenario.population).report()
            best[i] = min(best[i], time.perf_counter() - started)
    return best


def test_engine_scales_linearly(benchmark):
    scenarios = [healthcare_scenario(n, seed=3) for n in SIZES]

    def measure():
        return list(zip(SIZES, _round_robin_best(scenarios, TIMING_REPEATS)))

    timings = benchmark.pedantic(measure, rounds=1, iterations=1)

    emit(
        "E7: full-model evaluation time vs population size",
        format_table(
            ["N providers", "seconds"],
            [[n, seconds] for n, seconds in timings],
        ),
    )

    sizes = np.array([n for n, _ in timings], dtype=float)
    seconds = np.array([s for _, s in timings], dtype=float)
    # Least-squares linear fit; demand a strong linear relationship.
    coeffs = np.polyfit(sizes, seconds, 1)
    predicted = np.polyval(coeffs, sizes)
    ss_res = float(((seconds - predicted) ** 2).sum())
    ss_tot = float(((seconds - seconds.mean()) ** 2).sum())
    r_squared = 1.0 - ss_res / ss_tot if ss_tot else 1.0
    emit(
        "E7: linear fit",
        format_table(
            ["slope s/provider", "intercept", "R^2"],
            [[float(coeffs[0]), float(coeffs[1]), r_squared]],
        ),
    )
    assert r_squared > 0.95
    assert coeffs[0] > 0
    record(
        "engine_scaling",
        sizes=list(SIZES),
        seconds=[s for _, s in timings],
        slope_seconds_per_provider=float(coeffs[0]),
        r_squared=r_squared,
    )


def test_sweep_batch_vs_reference(benchmark):
    """The batch engine's policy sweep beats per-policy reference engines.

    A widening sweep of ``SWEEP_POLICIES`` candidates over
    ``SWEEP_PROVIDERS`` providers is evaluated twice: once the reference
    way (a fresh :class:`ViolationEngine` per candidate) and once through
    one :class:`BatchViolationEngine` (one compilation, cached reports,
    column deltas between consecutive candidates).  Both must agree on
    every aggregate; the batch path must clear ``MIN_SWEEP_SPEEDUP``.
    Each path is timed best-of-``TIMING_REPEATS`` with a fresh engine per
    repeat (the report cache is content-keyed, so a reused engine would
    measure cache hits, not evaluation).
    """
    scenario = healthcare_scenario(SWEEP_PROVIDERS, seed=3)
    policies = widening_policies(
        scenario.policy,
        WideningStep.uniform(1),
        scenario.taxonomy,
        SWEEP_POLICIES - 1,
    )
    assert len(policies) == SWEEP_POLICIES

    def measure():
        reference = [
            ViolationEngine(policy, scenario.population).report()
            for policy in policies
        ]
        reference_seconds = _best_of(
            TIMING_REPEATS,
            lambda: [
                ViolationEngine(policy, scenario.population).report()
                for policy in policies
            ],
        )
        batch = BatchViolationEngine(scenario.population).evaluate_policies(
            policies
        )
        batch_seconds = _best_of(
            TIMING_REPEATS,
            lambda: BatchViolationEngine(
                scenario.population
            ).evaluate_policies(policies),
        )
        return reference, reference_seconds, batch, batch_seconds

    reference, reference_seconds, batch, batch_seconds = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    for expected, got in zip(reference, batch):
        assert got.n_violated == expected.n_violated
        assert got.n_defaulted == expected.n_defaulted
        assert got.violated_ids() == expected.violated_ids()
        np.testing.assert_allclose(
            got.total_violations, expected.total_violations, rtol=1e-9
        )

    speedup = reference_seconds / batch_seconds if batch_seconds else float("inf")
    emit(
        "E7: policy sweep, reference vs batch engine",
        format_table(
            ["providers", "policies", "reference s", "batch s", "speedup"],
            [
                [
                    SWEEP_PROVIDERS,
                    SWEEP_POLICIES,
                    round(reference_seconds, 4),
                    round(batch_seconds, 4),
                    round(speedup, 1),
                ]
            ],
        ),
    )
    record(
        "sweep_batch_vs_reference",
        providers=SWEEP_PROVIDERS,
        policies=SWEEP_POLICIES,
        reference_seconds=reference_seconds,
        batch_seconds=batch_seconds,
        speedup=speedup,
        smoke=SMOKE,
    )
    assert speedup >= MIN_SWEEP_SPEEDUP


def test_gate_request_throughput(benchmark, crm_200):
    with PrivacyDatabase.create(":memory:") as db:
        db.install(crm_200.policy, crm_200.population)
        for provider in crm_200.population:
            db.repository.put_datum(
                str(provider.provider_id), "email", "user@example.com"
            )
        gate = db.gate(mode=EnforcementMode.AUDIT)
        request = AccessRequest(
            "email", PrivacyTuple("fulfillment", 2, 4, 1)
        )

        decision = benchmark(gate.request, request)
        assert decision.allowed
        events = db.audit_log.report().total_events
        emit(
            "E7: gate requests audited",
            format_table(["audited events"], [[events]]),
        )
        assert events >= 1
