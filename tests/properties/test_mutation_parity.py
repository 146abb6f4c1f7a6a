"""Parity: the incremental engine must equal a fresh compile, bit for bit.

The :class:`~repro.perf.batch.BatchViolationEngine` takes departures in
place — a removal tombstones rows, and past half the rows tombstoned
the survivors are compacted into a fresh compile — instead of
recompiling every round.  These tests drive randomized removal
sequences (1-3 providers per step, interleaved with evaluations, many
of them crossing the compaction threshold) and assert that every report
is **bit-for-bit identical** to a fresh compile-and-evaluate of the
providers still present.  As in :mod:`tests.properties.test_batch_parity`,
the corpus draws every continuous quantity as a dyadic rational, so any
discrepancy is a logic bug, never rounding noise — but the contract is
stronger than order-independence: survivors keep their original rows,
so the incremental engine performs the *same* floating-point additions
in the *same* order as the fresh compile it must match.

Half the corpus evaluates every policy before the first removal, so the
engine must mask cached state; the other half starts uncached.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import Population
from repro.perf import BatchViolationEngine

from tests.properties.test_batch_parity import _random_policy, _random_population

N_SCENARIOS = 300  # the acceptance floor for removal sequences
MUTATIONS_PER_SCENARIO = 8


def _assert_reports_identical(actual, expected) -> None:
    assert actual.policy_name == expected.policy_name
    assert actual.n_providers == expected.n_providers
    assert actual.n_violated == expected.n_violated
    assert actual.n_defaulted == expected.n_defaulted
    assert actual.violation_probability == expected.violation_probability
    assert actual.default_probability == expected.default_probability
    assert actual.total_violations == expected.total_violations
    assert actual.provider_ids == expected.provider_ids
    assert actual.segments == expected.segments
    assert np.array_equal(actual.violations, expected.violations)
    assert np.array_equal(actual.thresholds, expected.thresholds)
    assert np.array_equal(actual.violated, expected.violated)
    assert np.array_equal(actual.defaulted, expected.defaulted)


def _remove_some(
    rng: random.Random, engine: BatchViolationEngine, population: Population
) -> Population:
    """Remove 1-3 random providers, leaving at least one, from both the
    engine and the plain-Population mirror the fresh-compile oracle is
    built from."""
    count = rng.randrange(1, min(3, len(population) - 1) + 1)
    victims = [p.provider_id for p in rng.sample(population.providers, count)]
    engine.remove(victims)
    return population.without(victims)


def _drive(seed: int) -> int:
    """Run one seeded removal sequence; returns how often it compacted."""
    rng = random.Random(seed)
    population = _random_population(rng)
    policies = [
        _random_policy(rng, name=f"mut-{seed}-{i}") for i in range(3)
    ]
    cached = rng.random() < 0.5  # half the corpus pre-populates caches
    engine = BatchViolationEngine(population)
    removals = 0
    if cached:
        for policy in policies:
            engine.evaluate(policy)
    for _ in range(rng.randrange(1, MUTATIONS_PER_SCENARIO + 1)):
        if len(population) < 2:
            break
        population = _remove_some(rng, engine, population)
        removals += 1
        if rng.random() < 0.5:
            # Interleaved evaluation: the next removal must mask
            # this freshly cached state.
            policy = rng.choice(policies)
            report = engine.evaluate(policy)
            expected = BatchViolationEngine(population).evaluate(policy)
            _assert_reports_identical(report, expected)
    fresh = BatchViolationEngine(population)
    for policy in policies:
        # Evaluated twice: once live, once through the report cache.
        for _ in range(2):
            _assert_reports_identical(
                engine.evaluate(policy), fresh.evaluate(policy)
            )
    policy = policies[0]
    certificate = engine.certify(policy, 0.5)
    expected_cert = fresh.certify(policy, 0.5)
    assert (
        certificate.violation_probability
        == expected_cert.violation_probability
    )
    assert certificate.satisfied == expected_cert.satisfied
    assert set(certificate.violated_providers) == set(
        expected_cert.violated_providers
    )
    # Each removal adds one to the epoch, each compaction one more.
    return engine.epoch - removals


@pytest.mark.parametrize("seed", range(N_SCENARIOS))
def test_mutation_sequence_parity_serial(seed):
    _drive(seed)


def test_corpus_crosses_the_compaction_threshold():
    # Masked rows and compacted stores are both on the path under test.
    compacted = sum(_drive(seed) > 0 for seed in range(50))
    assert 10 <= compacted < 50
