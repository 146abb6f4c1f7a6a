"""Targeted firing / non-firing tests for the population layer.

Each PVL21x rule gets one fixture engineered to trip it and one
counterpart engineered to stay quiet, linted with ``select`` so other
layers cannot mask the behaviour under test.
"""

from __future__ import annotations

import json

import pytest

from repro.lint import (
    Layer,
    LintConfig,
    LintReport,
    get_rule,
    lint_documents,
    render_sarif,
)
from repro.taxonomy import standard_taxonomy

from .conftest import rule


def codes(report):
    return report.codes()


class TestCatalogue:
    def test_population_rules_registered(self):
        for code in ("PVL210", "PVL211", "PVL212", "PVL213", "PVL214"):
            info = get_rule(code)
            assert info.layer is Layer.POPULATION

    def test_declared_scopes_as_sarif_prints_them(self):
        declared = {
            "PVL210": "provider",
            "PVL211": "provider",
            "PVL212": "global",
            "PVL213": "global",
            "PVL214": "provider",
        }
        log = json.loads(render_sarif(LintReport(())))
        printed = {
            descriptor["id"]: descriptor["properties"]["scope"]
            for descriptor in log["runs"][0]["tool"]["driver"]["rules"]
        }
        for code, scope in declared.items():
            assert get_rule(code).scope == scope
            assert printed[code] == scope


class TestDeadPreferenceClause:
    @pytest.fixture()
    def two_purpose_taxonomy(self):
        return standard_taxonomy(["billing", "research"])

    def test_fires_on_unused_purpose(self, two_purpose_taxonomy):
        policy = {"name": "p", "rules": [rule()]}  # collects under billing
        population = {
            "providers": [
                {
                    "provider": "a",
                    "preferences": [rule(purpose="research")],
                }
            ]
        }
        report = lint_documents(
            two_purpose_taxonomy,
            policy=policy,
            population=population,
            select=["PVL210"],
        )
        assert codes(report) == ("PVL210",)
        payload = report.diagnostics[0].payload
        assert payload["purpose"] == "research"
        assert payload["policy_purposes"] == ["billing"]

    def test_quiet_when_purpose_is_used(self, two_purpose_taxonomy):
        policy = {"name": "p", "rules": [rule()]}
        population = {
            "providers": [{"provider": "a", "preferences": [rule()]}]
        }
        report = lint_documents(
            two_purpose_taxonomy,
            policy=policy,
            population=population,
            select=["PVL210"],
        )
        assert not report

    def test_quiet_when_attribute_not_collected(self, two_purpose_taxonomy):
        # The policy never touches "name": that gap is PVL106's business,
        # not a dead clause.
        policy = {"name": "p", "rules": [rule()]}
        population = {
            "providers": [
                {
                    "provider": "a",
                    "preferences": [rule(attribute="name")],
                }
            ]
        }
        report = lint_documents(
            two_purpose_taxonomy,
            policy=policy,
            population=population,
            select=["PVL210"],
        )
        assert not report


class TestSubsumedPreference:
    def test_fires_on_strict_domination(self, taxonomy, clean_policy):
        population = {
            "providers": [
                {
                    "provider": "permissive",
                    "preferences": [
                        rule(
                            visibility="all",
                            granularity="specific",
                            retention="indefinite",
                        )
                    ],
                }
            ]
        }
        report = lint_documents(
            taxonomy,
            policy=clean_policy,
            population=population,
            select=["PVL211"],
        )
        assert codes(report) == ("PVL211",)
        assert report.diagnostics[0].location.name == "permissive"

    def test_equality_is_not_subsumption(self, taxonomy, clean_policy):
        population = {
            "providers": [
                {"provider": "exact", "preferences": [rule()]}
            ]
        }
        report = lint_documents(
            taxonomy,
            policy=clean_policy,
            population=population,
            select=["PVL211"],
        )
        assert not report

    def test_tighter_preference_is_not_subsumed(self, taxonomy, clean_policy):
        population = {
            "providers": [
                {
                    "provider": "strict",
                    "preferences": [
                        rule(
                            visibility="owner",
                            granularity="existential",
                            retention="transaction",
                        )
                    ],
                }
            ]
        }
        report = lint_documents(
            taxonomy,
            policy=clean_policy,
            population=population,
            select=["PVL211"],
        )
        assert not report


class TestVacuousPolicy:
    def test_fires_when_no_provider_can_be_violated(
        self, taxonomy, clean_policy
    ):
        population = {
            "providers": [
                {"provider": "a", "preferences": [rule()]},
                {
                    "provider": "b",
                    "preferences": [
                        rule(
                            visibility="all",
                            granularity="specific",
                            retention="indefinite",
                        )
                    ],
                },
            ]
        }
        report = lint_documents(
            taxonomy,
            policy=clean_policy,
            population=population,
            select=["PVL212"],
        )
        assert codes(report) == ("PVL212",)
        assert report.diagnostics[0].payload["house_upper"] == 0.0

    def test_quiet_when_any_provider_is_violated(
        self, taxonomy, clean_policy, clean_population
    ):
        report = lint_documents(
            taxonomy,
            policy=clean_policy,
            population=clean_population,
            select=["PVL212"],
        )
        assert not report

    def test_quiet_without_policy_rules(self, taxonomy, clean_population):
        report = lint_documents(
            taxonomy,
            policy={"name": "empty", "rules": []},
            population=clean_population,
            select=["PVL212"],
        )
        assert not report


class TestStaticallyCertifiable:
    def test_fires_when_alpha_holds(
        self, taxonomy, clean_policy, clean_population
    ):
        report = lint_documents(
            taxonomy,
            policy=clean_policy,
            population=clean_population,
            config=LintConfig(alpha=0.5),
            select=["PVL213"],
        )
        assert codes(report) == ("PVL213",)
        payload = report.diagnostics[0].payload
        assert payload["alpha"] == 0.5
        assert payload["violation_probability"] == 0.5

    def test_quiet_without_alpha(
        self, taxonomy, clean_policy, clean_population
    ):
        report = lint_documents(
            taxonomy,
            policy=clean_policy,
            population=clean_population,
            select=["PVL213"],
        )
        assert not report

    def test_quiet_when_alpha_fails(
        self, taxonomy, clean_policy, clean_population
    ):
        # P(W) = 0.5 > 0.25: the failing direction belongs to PVL110.
        report = lint_documents(
            taxonomy,
            policy=clean_policy,
            population=clean_population,
            config=LintConfig(alpha=0.25),
            select=["PVL213"],
        )
        assert not report


class TestInevitableDefault:
    def test_fires_when_threshold_statically_exceeded(
        self, taxonomy, clean_policy
    ):
        population = {
            "attribute_sensitivities": {"weight": 2.0},
            "providers": [
                {
                    "provider": "fragile",
                    "threshold": 0.5,
                    "preferences": [
                        rule(
                            visibility="owner",
                            granularity="existential",
                            retention="transaction",
                        )
                    ],
                    "sensitivities": {"weight": {"value": 1.0}},
                }
            ],
        }
        report = lint_documents(
            taxonomy,
            policy=clean_policy,
            population=population,
            select=["PVL214"],
        )
        assert codes(report) == ("PVL214",)
        diagnostic = report.diagnostics[0]
        assert diagnostic.location.name == "fragile"
        assert diagnostic.payload["severity_lower"] > 0.5
        assert diagnostic.payload["threshold"] == 0.5

    def test_quiet_when_threshold_is_roomy(
        self, taxonomy, clean_policy, clean_population
    ):
        report = lint_documents(
            taxonomy,
            policy=clean_policy,
            population=clean_population,
            select=["PVL214"],
        )
        assert not report
