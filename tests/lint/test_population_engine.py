"""What the population rules read: one batch evaluation per lint context.

:class:`~repro.lint.registry.LintContext` compiles its population on the
first read of ``engine`` and evaluates the policy on the first read of
``report``.  PVL110 and PVL213 take their certificate from that engine,
PVL212 and PVL214 read the report, and PVL213's house bounds weigh each
attribute's rank exceedance by the least and the greatest weight of its
suppliers.  The paper's Section 8 example (``examples/documents``: Alice
0, Ted 60, Bob 80, total 140, P(W) = 2/3) pins the engine's numbers
against the reference :class:`~repro.core.engine.ViolationEngine`; small
hand-built populations pin the house-bound formula, and every bundled
dataset, widened, holds the rules to the reference engine.
"""

from __future__ import annotations

import copy
import json
import pathlib

import pytest

from repro.core.engine import ViolationEngine
from repro.lint import LintConfig, lint_documents, rules_population
from repro.lint.registry import LintContext, run_rules
from repro.lint.runner import build_context
from repro.obs import observed
from repro.policy_lang import parse_taxonomy
from repro.simulation.widening import WideningStep, widen
from repro.taxonomy import standard_taxonomy

from .conftest import rule
from .test_datasets_golden import DATASETS

DOCUMENTS = (
    pathlib.Path(__file__).resolve().parents[2] / "examples" / "documents"
)


def _load(name):
    return json.loads((DOCUMENTS / name).read_text())


@pytest.fixture(scope="module")
def paper():
    return {
        "taxonomy": parse_taxonomy(_load("taxonomy.json")),
        "policy": _load("policy.json"),
        "population": _load("population.json"),
    }


def _counters(obs) -> dict[str, float]:
    """The compile and batch-evaluation counters an observer recorded."""
    return {
        entry["name"]: entry["value"]
        for entry in obs.snapshot()["counters"]
        if entry["name"].startswith(("perf.", "engine.batch."))
    }


class TestLazyEvaluation:
    def test_engine_and_report_are_built_once(self, paper):
        with observed() as obs:
            context = build_context(
                paper["taxonomy"],
                policy=paper["policy"],
                population=paper["population"],
            )
            assert _counters(obs) == {}
            report = context.report
            assert context.report is report
            engine = context.engine
            assert context.engine is engine
            engine.certify(context.policy, 0.5)
        counters = _counters(obs)
        assert counters["perf.compilations"] == 1
        assert counters["engine.batch.full_evaluations"] == 1
        assert counters["engine.batch.cache_hits"] == 1

    def test_geometry_rules_compile_nothing(self, paper):
        # PVL210 and PVL211 read lattice geometry off the documents.
        with observed() as obs:
            lint_documents(
                paper["taxonomy"],
                policy=paper["policy"],
                population=paper["population"],
                config=LintConfig(alpha=0.5),
                select=["PVL210", "PVL211"],
            )
        assert _counters(obs) == {}

    def test_no_population_compiles_nothing(self, paper):
        with observed() as obs:
            report = lint_documents(
                paper["taxonomy"],
                policy=paper["policy"],
                config=LintConfig(alpha=0.5),
            )
        assert not {"PVL110", "PVL212", "PVL213", "PVL214"} & set(
            report.codes()
        )
        assert _counters(obs) == {}

    def test_house_bounds_run_only_when_pvl213_fires(
        self, paper, monkeypatch
    ):
        def refuse(ctx):
            raise AssertionError("house bounds computed for a silent PVL213")

        monkeypatch.setattr(rules_population, "_house_bounds", refuse)
        # P(W) = 2/3 > 0.5: the certificate fails, so PVL110 fires and
        # PVL213 stays silent.
        report = lint_documents(
            paper["taxonomy"],
            policy=paper["policy"],
            population=paper["population"],
            config=LintConfig(alpha=0.5),
            select=["PVL110", "PVL213"],
        )
        assert report.codes() == ("PVL110",)


class TestPaperExample:
    def test_report_is_the_reference_evaluation(self, paper):
        context = build_context(
            paper["taxonomy"],
            policy=paper["policy"],
            population=paper["population"],
        )
        reference = ViolationEngine(context.policy, context.population).report()
        report = context.report
        assert report.violations.tolist() == [0.0, 60.0, 80.0]
        assert report.violations.tolist() == [
            outcome.violation for outcome in reference.outcomes
        ]
        assert report.total_violations == reference.total_violations == 140.0
        assert report.violated_ids() == reference.violated_ids()
        assert report.defaulted_ids() == reference.defaulted_ids() == ("Ted",)

    @pytest.mark.parametrize(
        "alpha", [0.0, 0.5, 2 / 3, 1.0], ids=["0", "0.5", "2/3", "1"]
    )
    def test_certificate_is_the_reference_certificate(self, paper, alpha):
        context = build_context(
            paper["taxonomy"],
            policy=paper["policy"],
            population=paper["population"],
        )
        certificate = ViolationEngine(
            context.policy, context.population
        ).certify(alpha)
        report = lint_documents(
            paper["taxonomy"],
            policy=paper["policy"],
            population=paper["population"],
            config=LintConfig(alpha=alpha),
            select=["PVL110", "PVL213"],
        )
        # P(W) = 2/3: alpha = 2/3 is the first of these that holds.
        (finding,) = report.diagnostics
        assert finding.code == ("PVL213" if alpha >= 2 / 3 else "PVL110")
        assert certificate.satisfied == (finding.code == "PVL213")
        payload = finding.payload
        assert payload["alpha"] == certificate.alpha
        assert payload["violation_probability"] == (
            certificate.violation_probability
        )
        assert payload["n_providers"] == certificate.n_providers == 3
        if certificate.satisfied:
            assert payload["margin"] == certificate.margin
        else:
            assert payload["violated_providers"] == ["Ted", "Bob"]

    @pytest.mark.parametrize(
        ("threshold", "defaults"), [(59.5, True), (60, False)]
    )
    def test_default_needs_violation_strictly_above_threshold(
        self, paper, threshold, defaults
    ):
        population = copy.deepcopy(paper["population"])
        (ted,) = [
            p for p in population["providers"] if p["provider"] == "Ted"
        ]
        ted["threshold"] = threshold
        report = lint_documents(
            paper["taxonomy"],
            policy=paper["policy"],
            population=population,
            select=["PVL214"],
        )
        # Ted's Violation_i is 60; Alice (0 <= 10) and Bob (80 <= 100)
        # never default.
        assert [d.location.name for d in report] == (
            ["Ted"] if defaults else []
        )
        if defaults:
            payload = report.diagnostics[0].payload
            assert payload["severity_lower"] == payload["severity_upper"] == 60.0
            assert payload["threshold"] == threshold
            assert payload["strict"] is True


class TestHouseBounds:
    """PVL213's ``[house_lower, house_upper]`` on populations small
    enough to weigh by hand.  The policy is one rule, ``weight`` @
    ``billing`` at ranks (2, 2, 2); provider ``a`` states (1, 1, 1) and
    provider ``b`` supplies ``weight`` without a preference, so its
    implicit zero tuple is exceeded by the policy ranks themselves."""

    @staticmethod
    def _bounds(policy, population, alpha=1.0):
        report = lint_documents(
            standard_taxonomy(["billing"]),
            policy=policy,
            population=population,
            config=LintConfig(alpha=alpha),
            select=["PVL213"],
        )
        (finding,) = report.diagnostics
        return finding.payload["house_lower"], finding.payload["house_upper"]

    @staticmethod
    def _total(policy, population):
        context = build_context(
            standard_taxonomy(["billing"]),
            policy=policy,
            population=population,
        )
        return ViolationEngine(
            context.policy, context.population
        ).report().total_violations

    @staticmethod
    def _population(a_weights=None, b_weights=None):
        low = rule(visibility="owner", granularity="existential",
                   retention="transaction")
        a = {"provider": "a", "preferences": [low]}
        b = {"provider": "b", "attributes_provided": ["weight"]}
        if a_weights is not None:
            a["sensitivities"] = {"weight": a_weights}
        if b_weights is not None:
            b["sensitivities"] = {"weight": b_weights}
        return {"attribute_sensitivities": {"weight": 2.0},
                "providers": [a, b]}

    def test_uniform_weights_pin_the_total(self, clean_policy):
        # Exceedance (1, 1, 1) + (2, 2, 2), every weight 2: 6 + 12.
        population = self._population()
        assert self._total(clean_policy, population) == 18.0
        assert self._bounds(clean_policy, population) == (18.0, 18.0)

    def test_weight_range_spans_explicit_and_implicit_suppliers(
        self, clean_policy
    ):
        # a weighs (6, 2, 2) on its explicit row, b (2, 10, 2) on its
        # implicit one: the exact total is 10 + 28, the per-dimension
        # exceedance (3, 3, 3) weighs 18 at the least weights (2, 2, 2)
        # and 54 at the greatest (6, 10, 2).  Either row set alone
        # would miss the total.
        population = self._population(
            a_weights={"value": 1, "visibility": 3},
            b_weights={"value": 1, "granularity": 5},
        )
        assert self._total(clean_policy, population) == 38.0
        assert self._bounds(clean_policy, population) == (18.0, 54.0)

    def test_unsupplied_attribute_adds_nothing(self, clean_policy):
        policy = copy.deepcopy(clean_policy)
        policy["rules"].append(rule(attribute="height"))
        population = self._population()
        assert self._total(policy, population) == 18.0
        assert self._bounds(policy, population) == (18.0, 18.0)

    def test_vacuous_policy_bounds_are_zero(self, clean_policy):
        # Both providers permit at least what the policy takes.
        population = {
            "providers": [
                {"provider": "a", "preferences": [rule()]},
                {
                    "provider": "b",
                    "preferences": [
                        rule(visibility="all", granularity="specific",
                             retention="indefinite")
                    ],
                },
            ]
        }
        report = lint_documents(
            standard_taxonomy(["billing"]),
            policy=clean_policy,
            population=population,
            config=LintConfig(alpha=0.0),
            select=["PVL212", "PVL213"],
        )
        assert report.codes() == ("PVL212", "PVL213")
        for finding in report:
            assert finding.payload["house_lower"] == 0.0
            assert finding.payload["house_upper"] == 0.0


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_widened_dataset_agrees_with_the_reference_engine(name):
    """Each bundled dataset with its policy widened two levels, so that
    most providers are violated and some default; at alpha = 1 PVL213
    always reports its house bounds.  The batch engine sums in another
    order than the reference, so severities agree to within rounding."""
    scenario = DATASETS[name]()
    policy = widen(scenario.policy, WideningStep.uniform(2), scenario.taxonomy)
    context = LintContext(
        taxonomy=scenario.taxonomy,
        policy=policy,
        population=scenario.population,
        config=LintConfig(alpha=1.0),
    )
    findings = run_rules(context, select=("PVL212", "PVL213", "PVL214"))
    reference = ViolationEngine(policy, scenario.population).report()
    assert reference.n_violated > 0

    defaults = {
        d.location.name: d.payload for d in findings if d.code == "PVL214"
    }
    expected = {
        str(o.provider_id): o.violation
        for o in reference.outcomes
        if o.defaulted
    }
    assert defaults.keys() == expected.keys()
    for provider, payload in defaults.items():
        assert payload["severity_lower"] == payload["severity_upper"]
        assert payload["severity_lower"] == pytest.approx(
            expected[provider], rel=1e-12
        )

    assert [d.code for d in findings if d.code != "PVL214"] == ["PVL213"]
    (certifiable,) = [d for d in findings if d.code == "PVL213"]
    payload = certifiable.payload
    assert payload["violation_probability"] == reference.violation_probability
    assert payload["house_lower"] <= reference.total_violations
    assert reference.total_violations <= payload["house_upper"]
