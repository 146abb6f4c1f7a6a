"""Unit tests for population churn: ``CompiledPopulation.remove`` and
``BatchViolationEngine.remove``.

The property suite (``tests/properties/test_mutation_parity.py``) holds
the bit-for-bit contract over randomized removal sequences; these tests
pin the mechanics — tombstone masking, validation atomicity, cache and
epoch behaviour, compaction — on hand-built scenarios where
each behaviour is observable in isolation.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import (
    HousePolicy,
    Population,
    PrivacyTuple,
    Provider,
    ProviderPreferences,
    ViolationEngine,
)
from repro.exceptions import UnknownProviderError
from repro.obs import observed
from repro.perf import BatchViolationEngine, CompiledPopulation
from repro.simulation.widening import policy_delta_columns

from tests.properties.test_batch_parity import _random_policy, _random_population


def _counters(snapshot):
    return {c["name"]: c["value"] for c in snapshot["counters"]}


def _fresh_report(population, policy):
    return BatchViolationEngine(population).evaluate(policy)


def _assert_reports_identical(actual, expected):
    assert actual.policy_name == expected.policy_name
    assert actual.provider_ids == expected.provider_ids
    assert actual.segments == expected.segments
    assert np.array_equal(actual.violations, expected.violations)
    assert np.array_equal(actual.thresholds, expected.thresholds)
    assert np.array_equal(actual.violated, expected.violated)
    assert np.array_equal(actual.defaulted, expected.defaulted)
    assert actual.violation_probability == expected.violation_probability
    assert actual.total_violations == expected.total_violations


# ---------------------------------------------------------------------------
# mutation mechanics on the compiled store
# ---------------------------------------------------------------------------


class TestMutableCompiledPopulation:
    def test_remove_is_tombstone_only(self):
        rng = random.Random(1)
        population = _random_population(rng)
        compiled = CompiledPopulation(population)
        capacity = len(compiled)
        victim = population.providers[0].provider_id
        compiled.remove([victim])
        # The row count is unchanged: the row is masked, not deleted.
        assert len(compiled) == capacity
        assert compiled.dead_count == 1
        assert compiled.alive_count == capacity - 1
        assert victim not in compiled.alive_ids
        assert victim in compiled.ids  # still present in the row space

    def test_remove_unknown_id_is_atomic(self):
        rng = random.Random(2)
        population = _random_population(rng)
        compiled = CompiledPopulation(population)
        known = population.providers[0].provider_id
        with pytest.raises(UnknownProviderError):
            compiled.remove([known, "no-such-provider"])
        # The known id must not have been tombstoned by the failed call.
        assert compiled.dead_count == 0
        assert known in compiled.alive_ids

    def test_remove_duplicate_ids_tombstone_once(self):
        rng = random.Random(3)
        population = _random_population(rng)
        compiled = CompiledPopulation(population)
        victim = population.providers[0].provider_id
        rows = compiled.remove([victim, victim])
        assert rows.shape == (1,)
        assert compiled.dead_count == 1

    def test_epoch_advances_on_every_mutation(self):
        rng = random.Random(6)
        population = _random_population(rng)
        ids = population.ids()
        assert len(ids) == 10
        engine = BatchViolationEngine(population)
        epochs = [engine.epoch]
        engine.remove(ids[:1])
        epochs.append(engine.epoch)
        engine.remove(ids[1:2])
        epochs.append(engine.epoch)
        # Past half the rows tombstoned: the removal compacts, which
        # advances the epoch once more.
        engine.remove(ids[2:6])
        assert engine.tombstones == 0
        epochs.append(engine.epoch)
        # The compacted store counts on from there.
        engine.remove(ids[6:7])
        assert engine.tombstones == 1
        epochs.append(engine.epoch)
        assert epochs == [0, 1, 2, 4, 5]

    def test_alive_population_preserves_order(self):
        rng = random.Random(7)
        population = _random_population(rng)
        compiled = CompiledPopulation(population)
        victims = [p.provider_id for p in population.providers[1::2]]
        compiled.remove(victims)
        survivors = population.without(victims)
        assert compiled.alive_ids == survivors.ids()
        assert compiled.population.ids() == survivors.ids()


# ---------------------------------------------------------------------------
# the engine: masked evaluation, caches, compaction
# ---------------------------------------------------------------------------


class TestMutableBatchEngine:
    def test_masked_report_matches_fresh_compile(self):
        rng = random.Random(10)
        population = _random_population(rng)
        policy = _random_policy(rng, name="masked")
        victims = [p.provider_id for p in population.providers[:2]]
        engine = BatchViolationEngine(population)
        engine.remove(victims)
        report = engine.evaluate(policy)
        expected = _fresh_report(population.without(victims), policy)
        _assert_reports_identical(report, expected)

    def test_masked_report_is_cached_per_epoch(self):
        rng = random.Random(11)
        population = _random_population(rng)
        policy = _random_policy(rng, name="cached")
        victims = [p.provider_id for p in population.providers[:2]]
        with observed() as obs:
            engine = BatchViolationEngine(population)
            engine.remove(victims[:1])
            first = engine.evaluate(policy)
            second = engine.evaluate(policy)
            engine.remove(victims[1:])
            third = engine.evaluate(policy)
            counters = _counters(obs.snapshot())
        _assert_reports_identical(second, first)
        # A removal moves no row, so the one evaluation serves every
        # later call, across removals too.
        assert counters["engine.batch.full_evaluations"] == 1.0
        assert counters["engine.batch.cache_hits"] == 2.0
        _assert_reports_identical(
            third, _fresh_report(population.without(victims), policy)
        )

    def test_removals_never_recompile_below_threshold(self):
        rng = random.Random(12)
        population = _random_population(rng)
        policy = _random_policy(rng, name="nocompile")
        n = len(population)
        victims = [p.provider_id for p in population.providers[: n // 3]]
        with observed() as obs:
            engine = BatchViolationEngine(population)
            engine.evaluate(policy)
            for victim in victims:
                engine.remove([victim])
                engine.evaluate(policy)
            counters = _counters(obs.snapshot())
        assert counters["perf.compilations"] == 1.0
        assert counters.get("delta.compactions", 0.0) == 0.0
        assert counters["delta.removals"] == float(len(victims))

    def test_compaction_triggers_past_threshold(self):
        rng = random.Random(13)
        population = _random_population(rng)
        n = len(population)
        victims = [p.provider_id for p in population.providers[: n // 2 + 1]]
        with observed() as obs:
            engine = BatchViolationEngine(population)
            engine.remove(victims)
            assert engine.tombstones == 0  # compaction just ran
            counters = _counters(obs.snapshot())
        assert counters["delta.compactions"] == 1.0
        assert counters["perf.compilations"] == 2.0

    def test_certify_masked_matches_fresh_engine(self):
        rng = random.Random(17)
        population = _random_population(rng)
        policy = _random_policy(rng, name="certify")
        victims = [p.provider_id for p in population.providers[:1]]
        engine = BatchViolationEngine(population)
        engine.remove(victims)
        certificate = engine.certify(policy, 0.5)
        survivors = population.without(victims)
        expected = BatchViolationEngine(survivors).certify(policy, 0.5)
        assert certificate.alpha == expected.alpha
        assert certificate.violation_probability == expected.violation_probability
        assert certificate.satisfied == expected.satisfied
        assert certificate.n_providers == expected.n_providers
        assert set(certificate.violated_providers) == set(
            expected.violated_providers
        )

    def test_tuple_provider_ids_through_removals(self):
        # Ids may be any hashable: reports and certificates gather them
        # by row, so tuple ids come back whole, down to one and no id.
        population = Population(
            [
                Provider(
                    preferences=ProviderPreferences(
                        ("ward", i), [("weight", PrivacyTuple("billing", i % 4, 2, 2))]
                    ),
                    threshold=float(i % 3),
                )
                for i in range(10)
            ]
        )
        policy = HousePolicy(
            [("weight", PrivacyTuple("billing", 2, 2, 2))], name="tuple-ids"
        )
        present = population
        removals = 0
        engine = BatchViolationEngine(population)
        while len(present):
            report = engine.evaluate(policy)
            reference = ViolationEngine(policy, present)
            expected = reference.report()
            assert report.provider_ids == present.ids()
            assert report.violated_ids() == expected.violated_ids()
            assert report.defaulted_ids() == expected.defaulted_ids()
            for alpha in (0.0, 0.5, 1.0):
                assert engine.certify(policy, alpha) == reference.certify(alpha)
            leaving = report.defaulted_ids()[:2] or present.ids()[:1]
            engine.remove(leaving)
            removals += 1
            present = present.without(leaving)
        assert engine.epoch > removals  # at least one compaction ran

    def test_empty_mutations_are_noops(self):
        rng = random.Random(21)
        population = _random_population(rng)
        engine = BatchViolationEngine(population)
        epoch = engine.epoch
        engine.remove([])
        assert engine.epoch == epoch


# ---------------------------------------------------------------------------
# population helpers and the policy delta decomposition
# ---------------------------------------------------------------------------


class TestSatelliteHelpers:
    def test_policy_delta_columns_on_widening_step(self):
        from repro.datasets import healthcare_scenario
        from repro.simulation.widening import WideningStep, widen

        scenario = healthcare_scenario(10, seed=3)
        base = scenario.policy
        widened = widen(base, WideningStep.uniform(1), scenario.taxonomy)
        assert policy_delta_columns(base, base) == ()
        changed = policy_delta_columns(base, widened)
        assert changed  # a uniform step moves at least one column
        base_columns = {
            (entry.attribute, entry.tuple.purpose) for entry in base.entries
        }
        assert set(changed) <= base_columns
