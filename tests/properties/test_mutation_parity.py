"""Parity: the incremental engine must equal a fresh compile, bit for bit.

The :class:`~repro.perf.delta.MutableBatchEngine` mutates its compiled
population in place — removals tombstone rows, appends extend the
stores, edits splice entries — instead of recompiling.  These tests
drive randomized mutation sequences (add / remove / edit, interleaved
with evaluations) and assert that every report is **bit-for-bit
identical** to a fresh compile-and-evaluate of the population the
mutations produce.  As in :mod:`tests.properties.test_batch_parity`,
the corpus draws every continuous quantity as a dyadic rational, so any
discrepancy is a logic bug, never rounding noise — but the contract is
stronger than order-independence: survivors keep their original rows
and appends land at the end, so the incremental engine performs the
*same* floating-point additions in the *same* order as the fresh
compile it must match.

Evaluations are issued both before mutations (populating every cache,
so the delta paths must patch or mask cached state) and after a
cache-clearing pattern (uncached).
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from repro.core import Population, PreferenceEntry, ProviderPreferences
from repro.perf import BatchViolationEngine, MutableBatchEngine

from tests.properties.test_batch_parity import (
    _random_policy,
    _random_population,
    _random_provider,
)

N_SCENARIOS = 300  # the issue's acceptance floor for mutation sequences
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


def _random_edit(rng: random.Random, population: Population):
    """A replacement provider for a random member, with fresh everything
    except the id — preferences, supplied attributes, sensitivities,
    threshold, and segment all change."""
    target = rng.choice(population.providers)
    donor = _random_provider(rng, 0)
    preferences = ProviderPreferences(
        target.provider_id,
        [
            PreferenceEntry(
                provider_id=target.provider_id,
                attribute=entry.attribute,
                tuple=entry.tuple,
            )
            for entry in donor.preferences
        ],
        attributes_provided=donor.preferences.attributes_provided,
    )
    return dataclasses.replace(donor, preferences=preferences)


def _apply_random_mutation(
    rng: random.Random, engine, population: Population, next_id: int
) -> tuple[Population, int]:
    """One random add/remove/edit applied to both the engine and the
    plain-Population mirror the fresh-compile oracle is built from."""
    roll = rng.random()
    if roll < 0.35 and len(population) > 1:
        count = rng.randrange(1, min(3, len(population)))
        victims = [
            p.provider_id for p in rng.sample(population.providers, count)
        ]
        engine.remove(victims)
        return population.without(victims), next_id
    if roll < 0.65:
        added = [
            _random_provider(rng, next_id + offset)
            for offset in range(rng.randrange(1, 3))
        ]
        engine.append(added)
        return population.extended(added), next_id + len(added)
    replacement = _random_edit(rng, population)
    engine.update([replacement])
    return population.updated([replacement]), next_id


def _drive(seed: int) -> None:
    rng = random.Random(seed)
    population = _random_population(rng)
    policies = [
        _random_policy(rng, name=f"mut-{seed}-{i}") for i in range(3)
    ]
    cached = rng.random() < 0.5  # half the corpus pre-populates caches
    next_id = 10_000
    engine = MutableBatchEngine(population)
    try:
        if cached:
            for policy in policies:
                engine.evaluate(policy)
        for _ in range(rng.randrange(1, MUTATIONS_PER_SCENARIO + 1)):
            population, next_id = _apply_random_mutation(
                rng, engine, population, next_id
            )
            if len(population) == 0:
                break
            if rng.random() < 0.5:
                # Interleaved evaluation: the next mutation must patch
                # or mask this freshly cached state.
                policy = rng.choice(policies)
                report = engine.evaluate(policy)
                expected = BatchViolationEngine(population).evaluate(policy)
                _assert_reports_identical(report, expected)
        if len(population) == 0:
            return
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
    finally:
        engine.close()


@pytest.mark.parametrize("seed", range(N_SCENARIOS))
def test_mutation_sequence_parity_serial(seed):
    _drive(seed)
