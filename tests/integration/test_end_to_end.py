"""Full-pipeline integration: documents -> store -> engine -> analysis -> game."""

from __future__ import annotations

import pytest

from repro.analysis import (
    batch_certification_document,
    default_cdf_from_sweep,
    summarize,
    violation_matrix,
)
from repro.core import ViolationEngine
from repro.game import GreedyWidening, play_widening_game
from repro.perf import BatchViolationEngine
from repro.policy_lang import (
    parse_policy,
    policy_to_dict,
    preferences_to_dict,
    parse_preferences,
)
from repro.simulation import (
    WideningStep,
    run_dynamics,
    run_expansion_sweep,
)
from repro.storage import PrivacyDatabase


class TestDocumentToEnginePipeline:
    def test_policy_document_drives_engine(self, small_crm):
        document = policy_to_dict(small_crm.policy, small_crm.taxonomy)
        parsed = parse_policy(document, small_crm.taxonomy)
        direct = ViolationEngine(small_crm.policy, small_crm.population).report()
        via_doc = ViolationEngine(parsed, small_crm.population).report()
        assert via_doc.total_violations == direct.total_violations

    def test_preference_documents_round_trip_population(self, small_crm):
        for provider in list(small_crm.population)[:5]:
            document = preferences_to_dict(
                provider.preferences, small_crm.taxonomy
            )
            assert (
                parse_preferences(document, small_crm.taxonomy)
                == provider.preferences
            )


class TestScenarioToAnalysisPipeline:
    @pytest.fixture(scope="class")
    def sweep(self, small_healthcare):
        return run_expansion_sweep(
            small_healthcare.population,
            small_healthcare.policy,
            small_healthcare.taxonomy,
            max_steps=4,
            per_provider_utility=small_healthcare.per_provider_utility,
            extra_utility_per_step=small_healthcare.extra_utility_per_step,
        )

    def test_cdf_matches_sweep(self, sweep):
        cdf = default_cdf_from_sweep(sweep)
        assert cdf.cumulative_defaults == sweep.default_counts()

    def test_matrix_total_matches_engine(self, small_healthcare):
        engine = ViolationEngine(
            small_healthcare.policy, small_healthcare.population
        )
        matrix = violation_matrix(engine.report())
        assert matrix.total == pytest.approx(
            engine.report().total_violations
        )

    def test_summary_matches_engine(self, small_healthcare):
        engine = ViolationEngine(
            small_healthcare.policy, small_healthcare.population
        )
        summary = summarize(engine.report())
        assert summary.overall.n == len(small_healthcare.population)

    def test_certification_document_verifies(self, small_healthcare):
        engine = BatchViolationEngine(small_healthcare.population)
        assert batch_certification_document(
            engine, small_healthcare.policy, 0.05
        ).verify()


class TestStorageDrivenLifecycle:
    def test_widen_evict_recertify(self, small_crm):
        """The full house lifecycle on the sqlite store: install, widen,
        watch the certificate fail, evict defaulted providers, re-widen."""
        from repro.simulation import widen

        with PrivacyDatabase.create(":memory:") as db:
            db.install(small_crm.policy, small_crm.population)
            assert db.certify(0.05).satisfied

            widened = widen(
                small_crm.policy, WideningStep.uniform(2), small_crm.taxonomy
            )
            db.set_policy(widened)
            assert not db.certify(0.05).satisfied

            evicted = db.evict_defaulted()
            assert evicted
            report = db.engine().report()
            assert report.n_defaulted == 0
            # The survivors may still be violated, just not past threshold.
            assert report.n_providers == len(small_crm.population) - len(evicted)

    def test_dynamics_agree_with_repeated_eviction(self, small_crm):
        """run_dynamics in memory equals widen+evict loops on the store."""
        from repro.simulation import widen

        rounds = 3
        outcomes = run_dynamics(
            small_crm.population,
            small_crm.policy,
            small_crm.taxonomy,
            rounds=rounds,
        )
        with PrivacyDatabase.create(":memory:") as db:
            db.install(small_crm.policy, small_crm.population)
            policy = small_crm.policy
            store_counts = []
            for round_index in range(rounds):
                if round_index > 0:
                    policy = widen(
                        policy, WideningStep.uniform(1), small_crm.taxonomy
                    )
                    db.set_policy(policy)
                evicted = db.evict_defaulted()
                remaining = db.engine().report().n_providers
                store_counts.append(remaining)
            memory_counts = [o.n_remaining for o in outcomes]
            assert store_counts == memory_counts


class TestGameOverScenario:
    def test_greedy_game_terminates_and_loses_providers(self, small_social):
        trace = play_widening_game(
            small_social.population,
            small_social.policy,
            small_social.taxonomy,
            GreedyWidening(WideningStep.uniform(1), max_rounds=10),
            per_provider_utility=small_social.per_provider_utility,
            extra_utility_per_round=small_social.extra_utility_per_step,
        )
        assert trace.rounds
        assert trace.final_round.n_remaining <= trace.rounds[0].n_start
