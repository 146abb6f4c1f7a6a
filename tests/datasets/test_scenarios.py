"""Unit tests for the domain scenario datasets."""

from __future__ import annotations

from repro.core import ViolationEngine
from repro.datasets import crm_scenario, healthcare_scenario, social_network_scenario


class TestHealthcare:
    def test_baseline_is_clean(self, small_healthcare):
        report = ViolationEngine(
            small_healthcare.policy, small_healthcare.population
        ).report()
        assert report.violation_probability == 0.0
        assert report.default_probability == 0.0

    def test_westin_sensitivity_ranking(self, small_healthcare):
        sigma = small_healthcare.population.attribute_sensitivities
        assert sigma.weight("diagnosis") > sigma.weight("age")
        assert sigma.weight("income") > sigma.weight("weight")

    def test_policy_validates_against_taxonomy(self, small_healthcare):
        for entry in small_healthcare.policy:
            small_healthcare.taxonomy.validate_tuple(entry.tuple)

    def test_deterministic(self):
        a = healthcare_scenario(30, seed=1)
        b = healthcare_scenario(30, seed=1)
        for provider_a, provider_b in zip(a.population, b.population):
            assert provider_a.preferences == provider_b.preferences

    def test_size_parameter(self):
        assert len(healthcare_scenario(25, seed=1).population) == 25


class TestSocialNetwork:
    def test_baseline_violates_but_rarely_defaults(self, small_social):
        report = ViolationEngine(
            small_social.policy, small_social.population
        ).report()
        # Policy drift: advertising/analytics purposes were never accepted.
        assert report.violation_probability == 1.0
        assert 0.0 < report.default_probability < 0.35

    def test_defaults_concentrated_in_fundamentalists(self, small_social):
        report = ViolationEngine(
            small_social.policy, small_social.population
        ).report()
        defaulted_segments = {
            small_social.population.get(pid).segment
            for pid in report.defaulted_ids()
        }
        assert "unconcerned" not in defaulted_segments

    def test_service_purpose_alone_is_clean(self, small_social):
        from repro.core import HousePolicy

        service_only = HousePolicy(
            small_social.policy.for_purpose("service"), name="svc"
        )
        report = ViolationEngine(
            service_only, small_social.population
        ).report()
        assert report.violation_probability == 0.0


class TestCRM:
    def test_baseline_is_clean(self, small_crm):
        report = ViolationEngine(small_crm.policy, small_crm.population).report()
        assert report.violation_probability == 0.0

    def test_resale_policy_violates_everyone(self, small_crm):
        from repro.datasets.crm import crm_resale_policy

        resale = crm_resale_policy(small_crm.taxonomy)
        report = ViolationEngine(resale, small_crm.population).report()
        assert report.violation_probability == 1.0

    def test_resale_is_superset_of_baseline(self, small_crm):
        from repro.datasets.crm import crm_resale_policy

        resale = crm_resale_policy(small_crm.taxonomy)
        assert set(small_crm.policy.entries) <= set(resale.entries)

    def test_payment_card_most_sensitive(self, small_crm):
        sigma = small_crm.population.attribute_sensitivities
        assert sigma.weight("payment_card") == max(
            sigma.weight(a)
            for a in (
                "name",
                "email",
                "postal_address",
                "purchase_history",
                "payment_card",
            )
        )


class TestScenarioBundle:
    def test_str(self, small_crm):
        text = str(small_crm)
        assert "crm" in text

    def test_economic_parameters_positive(self):
        for maker in (healthcare_scenario, social_network_scenario, crm_scenario):
            scenario = maker(10, seed=1)
            assert scenario.per_provider_utility > 0
            assert scenario.extra_utility_per_step > 0

    def test_segment_mix_present(self, small_healthcare):
        segments = {p.segment for p in small_healthcare.population}
        assert segments == {"fundamentalist", "pragmatist", "unconcerned"}
