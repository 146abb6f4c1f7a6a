"""Fire/silent tests for the document-semantic rules PVL001-PVL006."""

from __future__ import annotations

from repro.lint import lint_documents
from repro.taxonomy import TaxonomyBuilder

from .conftest import rule


def codes(report):
    return [d.code for d in report.diagnostics]


def run(taxonomy, code, **documents):
    return lint_documents(taxonomy, select=[code], **documents)


class TestPVL001UnknownPurpose:
    def test_fires_on_policy_rule(self, taxonomy, clean_population):
        policy = {"name": "base", "rules": [rule(purpose="resale")]}
        report = run(taxonomy, "PVL001", policy=policy,
                     population=clean_population)
        assert codes(report) == ["PVL001"]
        diagnostic = report.diagnostics[0]
        assert diagnostic.location.describe() == "policy 'base' rule 0"
        assert diagnostic.location.field == "purpose"
        assert diagnostic.payload["purpose"] == "resale"
        assert "billing" in diagnostic.payload["known_purposes"]

    def test_fires_on_preference(self, taxonomy, clean_policy,
                                 clean_population):
        clean_population["providers"][0]["preferences"].append(
            rule(purpose="resale")
        )
        report = run(taxonomy, "PVL001", policy=clean_policy,
                     population=clean_population)
        assert codes(report) == ["PVL001"]
        assert report.diagnostics[0].location.document == "population"

    def test_silent_on_clean(self, taxonomy, clean_policy, clean_population):
        report = run(taxonomy, "PVL001", policy=clean_policy,
                     population=clean_population)
        assert codes(report) == []


class TestPVL002UnknownLevel:
    def test_fires_on_bad_retention(self, taxonomy, clean_population):
        policy = {"name": "base", "rules": [rule(retention="forever")]}
        report = run(taxonomy, "PVL002", policy=policy,
                     population=clean_population)
        assert codes(report) == ["PVL002"]
        diagnostic = report.diagnostics[0]
        assert diagnostic.location.field == "retention"
        assert diagnostic.payload["value"] == "forever"

    def test_fires_once_per_bad_field(self, taxonomy):
        policy = {
            "name": "base",
            "rules": [rule(visibility="galaxy", granularity="quark")],
        }
        report = run(taxonomy, "PVL002", policy=policy)
        assert codes(report) == ["PVL002", "PVL002"]
        assert [d.location.field for d in report.diagnostics] == [
            "visibility",
            "granularity",
        ]

    def test_silent_on_clean(self, taxonomy, clean_policy, clean_population):
        report = run(taxonomy, "PVL002", policy=clean_policy,
                     population=clean_population)
        assert codes(report) == []

    @staticmethod
    def _unbounded_taxonomy():
        return (
            TaxonomyBuilder()
            .with_purposes(["billing"])
            .with_retention_unbounded()
            .build()
        )

    def test_fires_on_negative_unbounded_rank_in_preference(self):
        population = {
            "providers": [
                {"provider": "p", "preferences": [rule(retention=-1)]}
            ]
        }
        report = run(self._unbounded_taxonomy(), "PVL002",
                     population=population)
        assert codes(report) == ["PVL002"]
        diagnostic = report.diagnostics[0]
        assert diagnostic.location.describe() == "preferences of 'p' entry 0"
        assert diagnostic.location.field == "retention"
        assert diagnostic.payload["value"] == -1

    def test_fires_on_negative_unbounded_rank_in_policy(self):
        policy = {"name": "base", "rules": [rule(retention=-1)]}
        report = run(self._unbounded_taxonomy(), "PVL002", policy=policy)
        assert codes(report) == ["PVL002"]
        diagnostic = report.diagnostics[0]
        assert diagnostic.location.describe() == "policy 'base' rule 0"
        assert diagnostic.location.field == "retention"
        assert diagnostic.payload["value"] == -1


class TestPVL003UndeclaredAttribute:
    def test_fires_when_preference_outside_attributes_provided(
        self, taxonomy, clean_policy, clean_population
    ):
        clean_population["providers"][1]["attributes_provided"] = ["age"]
        report = run(taxonomy, "PVL003", policy=clean_policy,
                     population=clean_population)
        assert codes(report) == ["PVL003"]
        diagnostic = report.diagnostics[0]
        assert diagnostic.location.describe() == "preferences of 'low' entry 0"
        assert diagnostic.payload["attribute"] == "weight"
        assert diagnostic.payload["attributes_provided"] == ["age"]

    def test_silent_without_explicit_attributes_provided(
        self, taxonomy, clean_policy, clean_population
    ):
        report = run(taxonomy, "PVL003", policy=clean_policy,
                     population=clean_population)
        assert codes(report) == []

    def test_silent_when_declared(self, taxonomy, clean_policy,
                                  clean_population):
        clean_population["providers"][1]["attributes_provided"] = ["weight"]
        report = run(taxonomy, "PVL003", policy=clean_policy,
                     population=clean_population)
        assert codes(report) == []


class TestPVL004DuplicatePolicyRule:
    def test_fires_on_exact_duplicate(self, taxonomy):
        policy = {"name": "base", "rules": [rule(), rule()]}
        report = run(taxonomy, "PVL004", policy=policy)
        assert codes(report) == ["PVL004"]
        diagnostic = report.diagnostics[0]
        assert diagnostic.location.index == 1
        assert diagnostic.payload["duplicate_of"] == 0

    def test_fires_on_candidate_too(self, taxonomy, clean_policy):
        candidate = {"name": "wider", "rules": [rule(), rule()]}
        report = run(taxonomy, "PVL004", policy=clean_policy,
                     candidate=candidate)
        assert codes(report) == ["PVL004"]
        assert report.diagnostics[0].location.document == "candidate"

    def test_silent_on_differing_rules(self, taxonomy):
        policy = {
            "name": "base",
            "rules": [rule(), rule(retention="long-term")],
        }
        report = run(taxonomy, "PVL004", policy=policy)
        assert codes(report) == []


class TestPVL005DuplicatePreference:
    def test_fires_on_exact_duplicate(self, taxonomy, clean_policy,
                                      clean_population):
        entry = clean_population["providers"][1]["preferences"][0]
        clean_population["providers"][1]["preferences"].append(dict(entry))
        report = run(taxonomy, "PVL005", policy=clean_policy,
                     population=clean_population)
        assert codes(report) == ["PVL005"]
        diagnostic = report.diagnostics[0]
        assert diagnostic.location.name == "low"
        assert diagnostic.payload["duplicate_of"] == 0

    def test_silent_on_clean(self, taxonomy, clean_policy, clean_population):
        report = run(taxonomy, "PVL005", policy=clean_policy,
                     population=clean_population)
        assert codes(report) == []


class TestPVL006NonMonotoneLadder:
    def _taxonomy_with_misplaced_none(self):
        return (
            TaxonomyBuilder()
            .with_purposes(["billing"])
            .with_visibility(["owner", "none", "all"])
            .with_granularity(["none", "existential", "specific"])
            .with_retention(["none", "transaction", "indefinite"])
            .build()
        )

    def test_fires_when_none_is_not_rank_zero(self):
        report = run(self._taxonomy_with_misplaced_none(), "PVL006")
        assert codes(report) == ["PVL006"]
        diagnostic = report.diagnostics[0]
        assert diagnostic.payload["dimension"] == "visibility"
        assert diagnostic.payload["rank"] == 1

    def test_silent_on_standard_taxonomy(self, taxonomy, clean_policy,
                                         clean_population):
        report = run(taxonomy, "PVL006", policy=clean_policy,
                     population=clean_population)
        assert codes(report) == []
