"""Unit tests for population churn: ``CompiledPopulation``'s row
operations and ``BatchViolationEngine``'s ``remove`` / ``append`` /
``update``.

The property suite (``tests/properties/test_mutation_parity.py``) holds
the bit-for-bit contract over randomized mutation sequences; these tests
pin the mechanics — tombstone masking, validation atomicity, cache and
epoch behaviour, compaction, copy-on-write thresholds, lifecycle — on
hand-built scenarios where each behaviour is observable in isolation.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.exceptions import UnknownProviderError, ValidationError
from repro.obs import observed
from repro.perf import BatchViolationEngine, CompiledPopulation
from repro.simulation.widening import policy_delta_columns

from tests.properties.test_batch_parity import (
    _random_policy,
    _random_population,
    _random_provider,
)


def _counters(snapshot):
    return {c["name"]: c["value"] for c in snapshot["counters"]}


def _fresh_report(population, policy, *, implicit_zero=True):
    engine = BatchViolationEngine(population, implicit_zero=implicit_zero)
    return engine.evaluate(policy)


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

    def test_append_rejects_duplicate_ids(self):
        rng = random.Random(4)
        population = _random_population(rng)
        compiled = CompiledPopulation(population)
        existing = population.providers[0]
        with pytest.raises(ValidationError):
            compiled.append([existing])
        fresh = _random_provider(rng, 500)
        with pytest.raises(ValidationError):
            compiled.append([fresh, fresh])
        assert len(compiled) == len(population)

    def test_update_unknown_id_rejected(self):
        rng = random.Random(5)
        population = _random_population(rng)
        compiled = CompiledPopulation(population)
        stranger = _random_provider(rng, 900)
        with pytest.raises(UnknownProviderError):
            compiled.update([stranger])

    def test_epoch_advances_on_every_mutation(self):
        rng = random.Random(6)
        population = _random_population(rng)
        engine = BatchViolationEngine(population)
        epochs = [engine.epoch]
        engine.remove([population.providers[0].provider_id])
        epochs.append(engine.epoch)
        engine.append([_random_provider(rng, 600)])
        epochs.append(engine.epoch)
        # Past half the rows tombstoned: the removal compacts, which
        # advances the epoch once more.
        engine.remove([p.provider_id for p in population.providers[1:6]])
        assert engine.tombstones == 0
        epochs.append(engine.epoch)
        assert epochs == [0, 1, 2, 4]

    def test_alive_population_preserves_order(self):
        rng = random.Random(7)
        population = _random_population(rng)
        compiled = CompiledPopulation(population)
        victims = [p.provider_id for p in population.providers[1::2]]
        compiled.remove(victims)
        survivors = population.without(victims)
        assert compiled.alive_ids == survivors.ids()
        assert compiled.population.ids() == survivors.ids()

    def test_models_describe_the_present_providers(self):
        rng = random.Random(8)
        population = _random_population(rng)
        compiled = CompiledPopulation(population)
        # Read the models once, so the mutations below must drop them.
        before = (compiled.sensitivities, compiled.default_model)
        victims = [p.provider_id for p in population.providers[::2]]
        compiled.remove(victims)
        added = _random_provider(rng, 650)
        compiled.append([added])
        present = population.without(victims).extended([added])
        expected = present.sensitivity_model()
        assert compiled.sensitivities is not before[0]
        assert compiled.default_model is not before[1]
        assert compiled.sensitivities.explicit_providers() == (
            expected.explicit_providers()
        )
        assert compiled.default_model.known_providers() == (
            present.default_model().known_providers()
        )
        for pid in present.ids():
            assert compiled.default_model.threshold(pid) == (
                present.default_model().threshold(pid)
            )


# ---------------------------------------------------------------------------
# the engine: masked evaluation, caches, compaction
# ---------------------------------------------------------------------------


class TestMutableBatchEngine:
    def test_masked_report_matches_fresh_compile(self):
        rng = random.Random(10)
        population = _random_population(rng)
        policy = _random_policy(rng, name="masked")
        victims = [p.provider_id for p in population.providers[:2]]
        with BatchViolationEngine(population) as engine:
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
            with BatchViolationEngine(population) as engine:
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
            with BatchViolationEngine(population) as engine:
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
            with BatchViolationEngine(population) as engine:
                engine.remove(victims)
                assert engine.tombstones == 0  # compaction just ran
            counters = _counters(obs.snapshot())
        assert counters["delta.compactions"] == 1.0
        assert counters["perf.compilations"] == 2.0

    def test_append_rescores_only_new_rows_serially(self):
        rng = random.Random(15)
        population = _random_population(rng)
        policy = _random_policy(rng, name="append")
        added = [_random_provider(rng, 700), _random_provider(rng, 701)]
        with observed() as obs:
            with BatchViolationEngine(population) as engine:
                engine.evaluate(policy)
                engine.append(added)
                report = engine.evaluate(policy)
            counters = _counters(obs.snapshot())
        expected = _fresh_report(population.extended(added), policy)
        _assert_reports_identical(report, expected)
        assert counters["perf.compilations"] == 1.0  # no recompile
        assert counters["delta.rescored"] == float(len(added))
        assert counters["delta.appends"] == float(len(added))

    def test_update_parity_and_threshold_copy_on_write(self):
        rng = random.Random(16)
        population = _random_population(rng)
        policy = _random_policy(rng, name="update")
        import dataclasses

        target = population.providers[0]
        replacement = dataclasses.replace(target, threshold=0.0)
        with BatchViolationEngine(population) as engine:
            before = engine.evaluate(policy)
            thresholds_before = before.thresholds.copy()
            engine.update([replacement])
            after = engine.evaluate(policy)
        # The pre-mutation report must keep the thresholds it was
        # assembled with — update() copies before patching.
        assert np.array_equal(before.thresholds, thresholds_before)
        expected = _fresh_report(population.updated([replacement]), policy)
        _assert_reports_identical(after, expected)

    def test_certify_masked_matches_fresh_engine(self):
        rng = random.Random(17)
        population = _random_population(rng)
        policy = _random_policy(rng, name="certify")
        victims = [p.provider_id for p in population.providers[:1]]
        with BatchViolationEngine(population) as engine:
            engine.remove(victims)
            exact = engine.certify(policy, 0.5)
            static = engine.certify(policy, 0.5, static=True)
        survivors = population.without(victims)
        expected = BatchViolationEngine(survivors).certify(policy, 0.5)
        for certificate in (exact, static):
            assert certificate.alpha == expected.alpha
            assert (
                certificate.violation_probability
                == expected.violation_probability
            )
            assert certificate.satisfied == expected.satisfied
            assert certificate.n_providers == expected.n_providers
            assert set(certificate.violated_providers) == set(
                expected.violated_providers
            )

    def test_certify_static_and_early_exit_are_exclusive(self):
        rng = random.Random(18)
        population = _random_population(rng)
        policy = _random_policy(rng, name="exclusive")
        with BatchViolationEngine(population) as engine:
            engine.remove([population.providers[0].provider_id])
            with pytest.raises(ValidationError):
                engine.certify(policy, 0.5, static=True, early_exit=True)

    def test_certify_early_exit_after_removal_matches_fresh_engine(self):
        # Early exit spends the alpha x N budget on the providers still
        # present only, so it stops where a fresh engine over them stops.
        checked = 0
        for seed in range(60):
            rng = random.Random(seed)
            population = _random_population(rng)
            if len(population) < 3:
                continue
            policy = _random_policy(rng, name=f"early-{seed}")
            count = rng.randrange(1, len(population) // 2 + 1)
            victims = [
                p.provider_id for p in rng.sample(population.providers, count)
            ]
            survivors = population.without(victims)
            for alpha in (0.0, 0.3, 1.0):
                with BatchViolationEngine(population) as engine:
                    engine.remove(victims)
                    certificate = engine.certify(policy, alpha, early_exit=True)
                expected = BatchViolationEngine(survivors).certify(
                    policy, alpha, early_exit=True
                )
                assert certificate == expected
                checked += 1
        assert checked > 100

    def test_empty_mutations_are_noops(self):
        rng = random.Random(21)
        population = _random_population(rng)
        with BatchViolationEngine(population) as engine:
            epoch = engine.epoch
            engine.remove([])
            engine.append([])
            engine.update([])
            assert engine.epoch == epoch

    def test_mutations_under_model_overrides_match_fresh_engine(self):
        # With overrides, mutated rows take their weights and thresholds
        # from the override models, as a fresh compile with them does.
        import dataclasses

        from repro.core.default import DefaultModel

        for seed in range(40):
            rng = random.Random(seed)
            population = _random_population(rng)
            sensitivities = population.sensitivity_model()
            default_model = DefaultModel(
                {
                    p.provider_id: rng.choice([0.0, 0.5, 2.0])
                    for p in population.providers[::2]
                },
                strict=False,
            )
            policy = _random_policy(rng, name=f"override-{seed}")
            present = population
            engine = BatchViolationEngine(
                population, sensitivities=sensitivities, default_model=default_model
            )
            engine.evaluate(policy)
            for step in range(3):
                if step == 0 and len(present) > 1:
                    victims = [present.providers[0].provider_id]
                    engine.remove(victims)
                    present = present.without(victims)
                elif step == 1:
                    added = [_random_provider(rng, 2000 + seed)]
                    engine.append(added)
                    present = present.extended(added)
                else:
                    replacement = dataclasses.replace(
                        present.providers[-1], threshold=0.25, segment="edited"
                    )
                    engine.update([replacement])
                    present = present.updated([replacement])
                fresh = BatchViolationEngine(
                    present, sensitivities=sensitivities, default_model=default_model
                )
                _assert_reports_identical(engine.evaluate(policy), fresh.evaluate(policy))
                for static in (False, True):
                    assert engine.certify(policy, 0.5, static=static) == (
                        fresh.certify(policy, 0.5, static=static)
                    )


# ---------------------------------------------------------------------------
# lifecycle: idempotent close everywhere
# ---------------------------------------------------------------------------


class TestLifecycle:
    @pytest.mark.parametrize(
        "factory",
        [lambda population: BatchViolationEngine(population)],
        ids=["bare-serial"],
    )
    def test_close_is_idempotent(self, factory):
        rng = random.Random(30)
        population = _random_population(rng)
        engine = factory(population)
        engine.close()
        engine.close()  # the dynamics `finally` pattern: must be a no-op

    def test_guarded_close_is_idempotent(self):
        from repro.resilience.guardrail import GuardedBatchEngine

        rng = random.Random(31)
        population = _random_population(rng)
        engine = GuardedBatchEngine(population)
        engine.close()
        engine.close()


# ---------------------------------------------------------------------------
# population helpers and the policy delta decomposition
# ---------------------------------------------------------------------------


class TestSatelliteHelpers:
    def test_population_extended_appends_in_order(self):
        rng = random.Random(40)
        population = _random_population(rng)
        added = [_random_provider(rng, 850)]
        extended = population.extended(added)
        assert extended.ids() == (*population.ids(), "pr850")
        with pytest.raises(ValidationError):
            population.extended([population.providers[0]])

    def test_population_updated_replaces_in_place(self):
        import dataclasses

        rng = random.Random(41)
        population = _random_population(rng)
        replacement = dataclasses.replace(
            population.providers[0], threshold=123.0
        )
        updated = population.updated([replacement])
        assert updated.ids() == population.ids()
        assert updated.providers[0].threshold == 123.0
        with pytest.raises(UnknownProviderError):
            population.updated([_random_provider(rng, 860)])

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
