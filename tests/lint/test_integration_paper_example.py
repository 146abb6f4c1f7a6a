"""The linter's static verdicts agree with the dynamic ViolationEngine.

This is the ISSUE's agreement criterion: on the paper's Section 8 worked
example (the shipped ``examples/documents``), the guaranteed-violation
rule (PVL101) and the static alpha-PPDB rule (PVL110) must reach exactly
the conclusions a live :class:`ViolationEngine` reaches.
"""

from __future__ import annotations

import copy
import json
import pathlib

import pytest

from repro.core.engine import ViolationEngine
from repro.lint import LintConfig, lint_documents
from repro.policy_lang import parse_policy, parse_population, parse_taxonomy

DOCUMENTS = (
    pathlib.Path(__file__).resolve().parents[2] / "examples" / "documents"
)


def load(name):
    return json.loads((DOCUMENTS / name).read_text())


@pytest.fixture(scope="module")
def documents():
    return {
        "taxonomy": load("taxonomy.json"),
        "policy": load("policy.json"),
        "population": load("population.json"),
    }


@pytest.fixture(scope="module")
def taxonomy(documents):
    return parse_taxonomy(documents["taxonomy"])


def engine_for(taxonomy, documents, policy_doc):
    policy = parse_policy(policy_doc, taxonomy)
    population = parse_population(documents["population"], taxonomy)
    return ViolationEngine(policy, population)


class TestStaticAlphaPPDBAgreement:
    def test_witness_matches_engine_violated_ids(self, taxonomy, documents):
        report = lint_documents(
            taxonomy,
            policy=documents["policy"],
            population=documents["population"],
            config=LintConfig(alpha=0.5),
            select=["PVL110"],
        )
        assert report.codes() == ("PVL110",)
        payload = report.diagnostics[0].payload

        engine_report = engine_for(
            taxonomy, documents, documents["policy"]
        ).report()
        assert sorted(payload["violated_providers"]) == sorted(
            str(p) for p in engine_report.violated_ids()
        )
        assert payload["violation_probability"] == pytest.approx(
            engine_report.violation_probability
        )
        # And both equal the paper's Eq. 22 value.
        assert payload["violation_probability"] == pytest.approx(2 / 3)
        assert sorted(payload["violated_providers"]) == ["Bob", "Ted"]

    def test_silent_exactly_when_engine_satisfies_alpha(
        self, taxonomy, documents
    ):
        engine_report = engine_for(
            taxonomy, documents, documents["policy"]
        ).report()
        for alpha in (0.4, 0.66, 0.67, 0.9):
            report = lint_documents(
                taxonomy,
                policy=documents["policy"],
                population=documents["population"],
                config=LintConfig(alpha=alpha),
                select=["PVL110"],
            )
            statically_fails = bool(report)
            dynamically_fails = engine_report.violation_probability > alpha
            assert statically_fails == dynamically_fails


class TestGuaranteedViolationAgreement:
    @pytest.fixture()
    def widened_policy(self, documents):
        # Push the Weight rule's visibility past every provider's
        # preference (Alice's v+2 = 4 is the population maximum).
        policy = copy.deepcopy(documents["policy"])
        weight = next(
            r for r in policy["rules"] if r["attribute"] == "Weight"
        )
        weight["visibility"] = 5
        return policy

    def test_paper_policy_emits_no_guarantee(self, taxonomy, documents):
        # Alice tolerates the Section 8 policy, so no rule is guaranteed.
        report = lint_documents(
            taxonomy,
            policy=documents["policy"],
            population=documents["population"],
            select=["PVL101"],
        )
        assert report.codes() == ()

    def test_guarantee_implies_engine_pw_one(
        self, taxonomy, documents, widened_policy
    ):
        report = lint_documents(
            taxonomy,
            policy=widened_policy,
            population=documents["population"],
            select=["PVL101"],
        )
        assert report.codes() == ("PVL101",)
        diagnostic = report.diagnostics[0]
        assert diagnostic.payload["forces_violation_probability_one"] is True
        assert sorted(diagnostic.payload["violated_providers"]) == [
            "Alice",
            "Bob",
            "Ted",
        ]

        engine_report = engine_for(
            taxonomy, documents, widened_policy
        ).report()
        assert engine_report.violation_probability == 1.0


class TestPopulationRulesAgreement:
    """PVL213 and PVL214 against a live engine on the Section 8 example:
    Alice 0, Ted 60 and Bob 80 make Eq. 16's total 140, and only Ted
    (threshold 50) defaults."""

    def test_inevitable_defaults_are_the_engine_defaults(
        self, taxonomy, documents
    ):
        report = lint_documents(
            taxonomy,
            policy=documents["policy"],
            population=documents["population"],
            select=["PVL214"],
        )
        engine_report = engine_for(
            taxonomy, documents, documents["policy"]
        ).report()
        assert [d.location.name for d in report] == [
            str(p) for p in engine_report.defaulted_ids()
        ] == ["Ted"]
        payload = report.diagnostics[0].payload
        assert payload["severity_lower"] == payload["severity_upper"] == 60.0
        assert payload["threshold"] == 50.0

    def test_house_bounds_contain_the_engine_total(self, taxonomy, documents):
        report = lint_documents(
            taxonomy,
            policy=documents["policy"],
            population=documents["population"],
            config=LintConfig(alpha=0.7),
            select=["PVL213"],
        )
        assert report.codes() == ("PVL213",)
        payload = report.diagnostics[0].payload
        total = engine_for(
            taxonomy, documents, documents["policy"]
        ).report().total_violations
        assert total == 140.0
        assert payload["house_lower"] <= total <= payload["house_upper"]
        assert (payload["house_lower"], payload["house_upper"]) == (20.0, 152.0)
