"""Unit tests for the batch engine's caching, delta, and certify paths."""

from __future__ import annotations

import math

import pytest

from repro.core import (
    HousePolicy,
    Population,
    PrivacyTuple,
    Provider,
    ProviderPreferences,
    ViolationEngine,
)
from repro.exceptions import UnknownProviderError, ValidationError
from repro.perf import (
    BatchViolationEngine,
    CompiledPopulation,
    batch,
    policy_fingerprint,
)


def _provider(pid: str, ranks=(1, 1, 1), threshold=4.0) -> Provider:
    return Provider(
        preferences=ProviderPreferences(
            pid,
            [
                ("weight", PrivacyTuple("billing", *ranks)),
                ("name", PrivacyTuple("research", *ranks)),
            ],
        ),
        threshold=threshold,
    )


@pytest.fixture()
def population() -> Population:
    return Population(
        [
            _provider("p0", (1, 1, 1), threshold=2.0),
            _provider("p1", (3, 3, 3), threshold=10.0),
            _provider("p2", (0, 0, 0), threshold=0.5),
        ]
    )


@pytest.fixture()
def wide_policy() -> HousePolicy:
    return HousePolicy(
        [
            ("weight", PrivacyTuple("billing", 4, 4, 4)),
            ("name", PrivacyTuple("research", 2, 2, 2)),
        ],
        name="wide",
    )


class TestFingerprint:
    def test_name_independent(self, wide_policy):
        renamed = HousePolicy(wide_policy.entries, name="other-name")
        assert policy_fingerprint(wide_policy) == policy_fingerprint(renamed)

    def test_order_independent(self, wide_policy):
        reversed_entries = HousePolicy(
            tuple(reversed(wide_policy.entries)), name="reversed"
        )
        assert policy_fingerprint(wide_policy) == policy_fingerprint(
            reversed_entries
        )

    def test_distinguishes_entries(self, wide_policy):
        other = HousePolicy(
            [("weight", PrivacyTuple("billing", 4, 4, 4))], name="wide"
        )
        assert policy_fingerprint(wide_policy) != policy_fingerprint(other)


class TestConstruction:
    def test_accepts_precompiled_population(self, population, wide_policy):
        compiled = CompiledPopulation(population)
        engine = BatchViolationEngine(compiled)
        assert engine.compiled is compiled
        assert engine.population is population
        report = engine.evaluate(wide_policy)
        assert report.n_providers == 3

    def test_rejects_non_policy(self, population):
        engine = BatchViolationEngine(population)
        with pytest.raises(ValidationError):
            engine.evaluate("not a policy")  # type: ignore[arg-type]

    def test_rejects_non_population(self):
        with pytest.raises(ValidationError):
            BatchViolationEngine(object())  # type: ignore[arg-type]

    def test_empty_population_evaluates_to_zeros(self, wide_policy):
        engine = BatchViolationEngine(
            Population([], attribute_sensitivities={"name": 1.0})
        )
        report = engine.evaluate(wide_policy)
        expected = ViolationEngine(wide_policy, Population([])).report()
        assert report.n_providers == expected.n_providers == 0
        assert report.violation_probability == 0.0
        assert report.default_probability == 0.0
        assert report.total_violations == expected.total_violations
        assert report.provider_ids == ()
        assert report.violations.shape == (0,)


class TestCaching:
    def test_same_policy_cached_once(self, population, wide_policy):
        engine = BatchViolationEngine(population)
        engine.evaluate(wide_policy)
        assert engine.cached_policies == 1
        engine.evaluate(wide_policy)
        assert engine.cached_policies == 1

    def test_cache_hits_across_names(self, population, wide_policy):
        engine = BatchViolationEngine(population)
        first = engine.evaluate(wide_policy)
        renamed = HousePolicy(wide_policy.entries, name="renamed")
        second = engine.evaluate(renamed)
        assert engine.cached_policies == 1
        # Same arrays (one evaluation), fresh name on the report.
        assert second.violations is first.violations
        assert second.policy_name == "renamed"

    def test_eviction_keeps_results_correct(
        self, population, wide_policy, monkeypatch
    ):
        monkeypatch.setattr(batch, "MAX_CACHED_REPORTS", 2)
        engine = BatchViolationEngine(population)
        policies = [
            HousePolicy(
                [("weight", PrivacyTuple("billing", v, v, v))],
                name=f"v{v}",
            )
            for v in range(5)
        ]
        for policy in policies:
            engine.evaluate(policy)
        assert engine.cached_policies == 2
        # Re-evaluating an evicted policy still matches the oracle.
        report = engine.evaluate(policies[0])
        expected = ViolationEngine(policies[0], population).report()
        assert report.total_violations == expected.total_violations
        assert report.violated_ids() == expected.violated_ids()

    def test_evaluate_policies_returns_in_order(self, population, wide_policy):
        engine = BatchViolationEngine(population)
        narrow = HousePolicy(
            [("weight", PrivacyTuple("billing", 1, 1, 1))], name="narrow"
        )
        reports = engine.evaluate_policies([wide_policy, narrow, wide_policy])
        assert [r.policy_name for r in reports] == ["wide", "narrow", "wide"]
        assert engine.cached_policies == 2


class TestDeltaPath:
    def test_single_column_change_matches_full(self, population):
        engine = BatchViolationEngine(population)
        base = HousePolicy(
            [
                ("weight", PrivacyTuple("billing", 2, 2, 2)),
                ("name", PrivacyTuple("research", 2, 2, 2)),
            ],
            name="base",
        )
        engine.evaluate(base)
        # Only the "weight" column moves: the delta path fires.
        stepped = HousePolicy(
            [
                ("weight", PrivacyTuple("billing", 3, 3, 3)),
                ("name", PrivacyTuple("research", 2, 2, 2)),
            ],
            name="stepped",
        )
        report = engine.evaluate(stepped)
        expected = ViolationEngine(stepped, population).report()
        assert report.total_violations == expected.total_violations
        assert report.violated_ids() == expected.violated_ids()
        assert report.defaulted_ids() == expected.defaulted_ids()

    def test_column_removal_and_addition(self, population):
        engine = BatchViolationEngine(population)
        engine.evaluate(
            HousePolicy(
                [
                    ("weight", PrivacyTuple("billing", 3, 3, 3)),
                    ("name", PrivacyTuple("research", 2, 2, 2)),
                ],
                name="both",
            )
        )
        # Drop one column, add another: still must match the oracle.
        swapped = HousePolicy(
            [
                ("weight", PrivacyTuple("billing", 3, 3, 3)),
                ("weight", PrivacyTuple("research", 1, 2, 1)),
            ],
            name="swapped",
        )
        report = engine.evaluate(swapped)
        expected = ViolationEngine(swapped, population).report()
        assert report.total_violations == expected.total_violations
        assert report.violated_ids() == expected.violated_ids()


class TestReportAccessors:
    def test_per_provider_lookups(self, population, wide_policy):
        engine = BatchViolationEngine(population)
        report = engine.evaluate(wide_policy)
        oracle = ViolationEngine(wide_policy, population)
        for outcome in oracle.outcomes():
            assert report.violation_of(outcome.provider_id) == outcome.violation
            assert report.is_violated(outcome.provider_id) == outcome.violated
            assert report.is_defaulted(outcome.provider_id) == outcome.defaulted

    def test_unknown_provider_raises(self, population, wide_policy):
        report = BatchViolationEngine(population).evaluate(wide_policy)
        with pytest.raises(UnknownProviderError):
            report.violation_of("mallory")

    def test_str_mentions_policy_and_probabilities(self, population, wide_policy):
        report = BatchViolationEngine(population).evaluate(wide_policy)
        text = str(report)
        assert "wide" in text and "P(W)" in text


class TestCertify:
    def test_exact_certificate_matches_reference(self, population, wide_policy):
        engine = BatchViolationEngine(population)
        certificate = engine.certify(wide_policy, 0.5)
        reference = ViolationEngine(wide_policy, population).certify(0.5)
        assert certificate == reference

    def test_empty_population_certifies_trivially(self, wide_policy):
        engine = BatchViolationEngine(Population([]))
        certificate = engine.certify(wide_policy, 0.0)
        assert certificate.satisfied is True
        assert certificate.n_providers == 0

    def test_rejects_invalid_alpha(self, population, wide_policy):
        engine = BatchViolationEngine(population)
        with pytest.raises(ValidationError):
            engine.certify(wide_policy, 1.5)


class TestReferenceEngine:
    def test_reference_engine_shares_models(self, wide_policy):
        population = Population(
            [
                _provider("p0", (1, 1, 1), threshold=0.0),
                _provider("p1", (3, 3, 3), threshold=math.inf),
                _provider("p2", (0, 0, 0), threshold=math.inf),
            ]
        )
        engine = BatchViolationEngine(population)
        oracle = engine.reference_engine(wide_policy)
        report = engine.evaluate(wide_policy)
        expected = oracle.report()
        assert report.defaulted_ids() == expected.defaulted_ids() == ("p0",)
        assert report.total_violations == expected.total_violations
