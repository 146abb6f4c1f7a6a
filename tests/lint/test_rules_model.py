"""Fire/silent tests for the cross-document model rules PVL101-PVL110."""

from __future__ import annotations

from repro.lint import LintConfig, lint_documents

from .conftest import rule


def codes(report):
    return [d.code for d in report.diagnostics]


def run(taxonomy, code, **kwargs):
    return lint_documents(taxonomy, select=[code], **kwargs)


class TestPVL101GuaranteedViolation:
    def test_fires_when_every_supplier_is_violated(self, taxonomy,
                                                   clean_population):
        # Both providers prefer less than "all"/"specific"/"indefinite"
        # except "high", so narrow the population to the violated one.
        clean_population["providers"] = clean_population["providers"][1:]
        policy = {"name": "base", "rules": [rule()]}
        report = run(taxonomy, "PVL101", policy=policy,
                     population=clean_population)
        assert codes(report) == ["PVL101"]
        diagnostic = report.diagnostics[0]
        assert diagnostic.payload["violated_providers"] == ["low"]
        assert diagnostic.payload["forces_violation_probability_one"] is True
        assert "P(W) = 1" in diagnostic.message

    def test_notes_partial_segment_without_pw_one(self, taxonomy,
                                                  clean_population):
        # Add a provider supplying a different attribute: the violated
        # segment no longer spans the whole population.
        clean_population["providers"].append(
            {
                "provider": "other",
                "preferences": [
                    rule(attribute="age", visibility="all",
                         granularity="specific", retention="indefinite")
                ],
            }
        )
        clean_population["providers"] = clean_population["providers"][1:]
        policy = {"name": "base", "rules": [rule(), rule(attribute="age")]}
        report = run(taxonomy, "PVL101", policy=policy,
                     population=clean_population)
        fired = report.with_code("PVL101")
        assert len(fired) == 1
        assert fired[0].payload["attribute"] == "weight"
        assert fired[0].payload["forces_violation_probability_one"] is False
        assert "P(W) = 1" not in fired[0].message

    def test_silent_when_some_supplier_tolerates(self, taxonomy, clean_policy,
                                                 clean_population):
        report = run(taxonomy, "PVL101", policy=clean_policy,
                     population=clean_population)
        assert codes(report) == []

    def test_silent_on_empty_population(self, taxonomy, clean_policy):
        report = run(taxonomy, "PVL101", policy=clean_policy,
                     population={"providers": []})
        assert codes(report) == []


class TestPVL102ShadowedRule:
    def test_fires_when_wider_rule_dominates(self, taxonomy):
        policy = {
            "name": "base",
            "rules": [
                rule(),
                rule(visibility="all", granularity="specific",
                     retention="indefinite"),
            ],
        }
        report = run(taxonomy, "PVL102", policy=policy)
        assert codes(report) == ["PVL102"]
        diagnostic = report.diagnostics[0]
        assert diagnostic.location.index == 0
        assert diagnostic.payload["shadowed_by"] == 1

    def test_silent_on_incomparable_rules(self, taxonomy):
        policy = {
            "name": "base",
            "rules": [
                rule(visibility="all"),
                rule(retention="indefinite"),
            ],
        }
        report = run(taxonomy, "PVL102", policy=policy)
        assert codes(report) == []

    def test_silent_across_attributes(self, taxonomy):
        policy = {
            "name": "base",
            "rules": [
                rule(),
                rule(attribute="age", visibility="all",
                     granularity="specific", retention="indefinite"),
            ],
        }
        report = run(taxonomy, "PVL102", policy=policy)
        assert codes(report) == []


class TestPVL103UnreachablePurpose:
    def test_fires_for_unused_registered_purpose(self, clean_policy):
        from repro.taxonomy import standard_taxonomy

        taxonomy = standard_taxonomy(["billing", "marketing"])
        report = run(taxonomy, "PVL103", policy=clean_policy)
        assert codes(report) == ["PVL103"]
        assert report.diagnostics[0].payload["purpose"] == "marketing"

    def test_silent_when_all_purposes_used(self, taxonomy, clean_policy,
                                           clean_population):
        report = run(taxonomy, "PVL103", policy=clean_policy,
                     population=clean_population)
        assert codes(report) == []


class TestPVL104ZeroSensitivity:
    def test_fires_on_zero_attribute_sensitivity(self, taxonomy, clean_policy,
                                                 clean_population):
        clean_population["attribute_sensitivities"]["weight"] = 0
        report = run(taxonomy, "PVL104", policy=clean_policy,
                     population=clean_population)
        assert codes(report) == ["PVL104"]
        assert report.diagnostics[0].payload["attribute"] == "weight"

    def test_fires_on_zero_provider_dimension_weight(self, taxonomy,
                                                     clean_policy,
                                                     clean_population):
        clean_population["providers"][0]["sensitivities"] = {
            "weight": {"value": 1.0, "visibility": 0.0}
        }
        report = run(taxonomy, "PVL104", policy=clean_policy,
                     population=clean_population)
        assert codes(report) == ["PVL104"]
        diagnostic = report.diagnostics[0]
        assert diagnostic.location.name == "high"
        assert diagnostic.payload["field"] == "visibility"

    def test_silent_on_positive_weights(self, taxonomy, clean_policy,
                                        clean_population):
        report = run(taxonomy, "PVL104", policy=clean_policy,
                     population=clean_population)
        assert codes(report) == []


class TestPVL105DeadPolicyRule:
    def test_fires_when_no_provider_supplies_attribute(self, taxonomy,
                                                       clean_population):
        policy = {"name": "base", "rules": [rule(), rule(attribute="age")]}
        report = run(taxonomy, "PVL105", policy=policy,
                     population=clean_population)
        assert codes(report) == ["PVL105"]
        diagnostic = report.diagnostics[0]
        assert diagnostic.location.index == 1
        assert diagnostic.payload["attribute"] == "age"
        assert diagnostic.payload["population_empty"] is False
        assert "no provider supplies it" in diagnostic.message

    def test_fires_with_empty_population_reason(self, taxonomy, clean_policy):
        report = run(taxonomy, "PVL105", policy=clean_policy,
                     population={"providers": []})
        assert codes(report) == ["PVL105"]
        diagnostic = report.diagnostics[0]
        assert diagnostic.payload["population_empty"] is True
        assert "the population is empty" in diagnostic.message

    def test_silent_when_all_attributes_supplied(self, taxonomy, clean_policy,
                                                 clean_population):
        report = run(taxonomy, "PVL105", policy=clean_policy,
                     population=clean_population)
        assert codes(report) == []


class TestPVL106InertPreference:
    def test_fires_for_uncollected_attribute(self, taxonomy, clean_policy,
                                             clean_population):
        clean_population["providers"][0]["preferences"].append(
            rule(attribute="shoe-size")
        )
        report = run(taxonomy, "PVL106", policy=clean_policy,
                     population=clean_population)
        assert codes(report) == ["PVL106"]
        diagnostic = report.diagnostics[0]
        assert diagnostic.location.name == "high"
        assert diagnostic.payload["attribute"] == "shoe-size"

    def test_silent_when_policy_covers_attribute(self, taxonomy, clean_policy,
                                                 clean_population):
        report = run(taxonomy, "PVL106", policy=clean_policy,
                     population=clean_population)
        assert codes(report) == []


class TestPVL107DominatedPreference:
    def test_fires_when_one_preference_dominates_another(self, taxonomy,
                                                         clean_policy,
                                                         clean_population):
        clean_population["providers"][1]["preferences"].append(
            rule(visibility="all", granularity="specific",
                 retention="indefinite")
        )
        report = run(taxonomy, "PVL107", policy=clean_policy,
                     population=clean_population)
        assert codes(report) == ["PVL107"]
        diagnostic = report.diagnostics[0]
        assert diagnostic.location.name == "low"
        assert diagnostic.location.index == 1
        assert diagnostic.payload["dominates"] == 0

    def test_silent_on_distinct_purposes(self, clean_policy,
                                         clean_population):
        from repro.taxonomy import standard_taxonomy

        taxonomy = standard_taxonomy(["billing", "marketing"])
        clean_population["providers"][1]["preferences"].append(
            rule(purpose="marketing", visibility="all",
                 granularity="specific", retention="indefinite")
        )
        report = run(taxonomy, "PVL107", policy=clean_policy,
                     population=clean_population)
        assert codes(report) == []

    def test_silent_on_clean(self, taxonomy, clean_policy, clean_population):
        report = run(taxonomy, "PVL107", policy=clean_policy,
                     population=clean_population)
        assert codes(report) == []


class TestPVL110StaticAlphaPPDB:
    def test_fires_when_alpha_exceeded(self, taxonomy, clean_policy,
                                       clean_population):
        report = run(taxonomy, "PVL110", policy=clean_policy,
                     population=clean_population,
                     config=LintConfig(alpha=0.25))
        assert codes(report) == ["PVL110"]
        diagnostic = report.diagnostics[0]
        assert diagnostic.payload["violated_providers"] == ["low"]
        assert diagnostic.payload["violation_probability"] == 0.5
        assert diagnostic.payload["alpha"] == 0.25

    def test_silent_when_alpha_satisfied(self, taxonomy, clean_policy,
                                         clean_population):
        report = run(taxonomy, "PVL110", policy=clean_policy,
                     population=clean_population,
                     config=LintConfig(alpha=0.5))
        assert codes(report) == []

    def test_silent_without_alpha_configured(self, taxonomy, clean_policy,
                                             clean_population):
        report = run(taxonomy, "PVL110", policy=clean_policy,
                     population=clean_population)
        assert codes(report) == []

    def test_silent_on_empty_population(self, taxonomy, clean_policy):
        # Definition 3 holds vacuously for N = 0, even at alpha = 0.
        report = run(taxonomy, "PVL110", policy=clean_policy,
                     population={"providers": []},
                     config=LintConfig(alpha=0.0))
        assert codes(report) == []


class TestPolicyRowIndex:
    """Policy-rule findings point at document rows, not lowered entries.

    ``HousePolicy`` keeps one entry per distinct ``(attribute, tuple)``,
    so a repeated row, or one tuple spelled with level names and with
    ranks, used to shift every later finding onto the wrong row.
    """

    @staticmethod
    def documents():
        import json
        from pathlib import Path

        from repro.policy_lang import parse_taxonomy

        root = Path(__file__).resolve().parents[2] / "examples" / "documents"
        taxonomy = parse_taxonomy(
            json.loads((root / "taxonomy.json").read_text())
        )
        population = json.loads((root / "population.json").read_text())
        return taxonomy, population

    @staticmethod
    def row(attribute, v, g, r):
        return {"attribute": attribute, "purpose": "pr", "visibility": v,
                "granularity": g, "retention": r}

    def test_shadowed_and_dead_rules_after_a_repeated_row(self):
        taxonomy, population = self.documents()
        policy = {"name": "repeated", "rules": [
            self.row("Weight", 2, 2, 2),
            self.row("Weight", 2, 2, 2),
            self.row("Weight", 3, 3, 3),
            self.row("Height", 1, 1, 1),
        ]}
        report = lint_documents(taxonomy, policy=policy, population=population)
        shadowed = report.with_code("PVL102")
        assert [d.location.index for d in shadowed] == [0]
        assert shadowed[0].payload["shadowed_by"] == 2
        assert "shadowed by rule 2" in shadowed[0].message
        dead = report.with_code("PVL105")
        assert [(d.location.index, d.payload["attribute"]) for d in dead] == [
            (3, "Height")
        ]
        duplicate = report.with_code("PVL004")
        assert [d.location.index for d in duplicate] == [1]

    def test_guaranteed_violation_after_a_repeated_row(self):
        taxonomy, population = self.documents()
        policy = {"name": "repeated", "rules": [
            self.row("Weight", 2, 2, 2),
            self.row("Weight", 2, 2, 2),
            self.row("Age", 5, 5, 5),
        ]}
        report = lint_documents(taxonomy, policy=policy, population=population)
        fired = report.with_code("PVL101")
        assert [(d.location.index, d.payload["attribute"]) for d in fired] == [
            (2, "Age")
        ]

    def test_guaranteed_violation_after_two_spellings_of_one_tuple(self):
        taxonomy, population = self.documents()
        policy = {"name": "spellings", "rules": [
            self.row("Weight", "house", "partial", "short-term"),
            self.row("Weight", 2, 2, 2),
            self.row("Age", 5, 5, 5),
        ]}
        report = lint_documents(taxonomy, policy=policy, population=population)
        fired = report.with_code("PVL101")
        assert [(d.location.index, d.payload["attribute"]) for d in fired] == [
            (2, "Age")
        ]


class TestRuleFaultsPropagate:
    """Only an unresolvable spec's ValidationError is the rules' to skip.

    A fault elsewhere in resolving a spec must fail the run, not silently
    drop findings.  Taxonomy.tuple is patched after the context is
    built: document lowering calls it too, and its error would mask the
    rules'.
    """

    def context(self, taxonomy, clean_policy, clean_population):
        from repro.lint.runner import build_context

        clean_population["providers"][0]["preferences"].append(
            rule(visibility="owner", granularity="existential",
                 retention="transaction")
        )
        return build_context(
            taxonomy, policy=clean_policy, population=clean_population
        )

    def test_rules_raise_on_a_resolution_fault(
        self, taxonomy, clean_policy, clean_population, monkeypatch
    ):
        import pytest

        from repro.lint.rules_model import check_dominated_preference
        from repro.lint.rules_population import check_subsumed_preference
        from repro.taxonomy.builder import Taxonomy

        ctx = self.context(taxonomy, clean_policy, clean_population)

        def broken(self, *args):
            raise RuntimeError("resolution fault")

        monkeypatch.setattr(Taxonomy, "tuple", broken)
        for check in (check_dominated_preference, check_subsumed_preference):
            with pytest.raises(RuntimeError, match="resolution fault"):
                check(ctx, lambda *args, **kwargs: None)

    def test_unresolvable_specs_are_skipped(self, taxonomy, clean_policy,
                                            clean_population):
        clean_population["providers"][0]["preferences"] = [
            rule(),
            rule(visibility="everyone"),
        ]
        report = lint_documents(taxonomy, policy=clean_policy,
                                population=clean_population,
                                select=["PVL002", "PVL107", "PVL211"])
        assert codes(report) == ["PVL002"]
