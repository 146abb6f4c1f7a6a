"""Lint explains where its time goes: the ``lint.run`` span, the
``lint.rule_seconds{code}`` timer, and the batch engine's counters.

While an observer is active, a lint run (one
:func:`~repro.lint.registry.run_rules` call) is one ``lint.run`` span and
each rule's check one timer sample; while none is, a run reads the
observer once and records nothing.  The population rules share one
compile and one batch evaluation per run, and a run whose rules need
neither (or whose population does not lower) compiles nothing.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.lint import LintConfig, all_rules, lint_documents
from repro.lint import registry
from repro.obs import active_observer, observed
from repro.policy_lang import parse_taxonomy

from tests.cli.test_cli import POLICY, POPULATION, TAXONOMY, _base_args
from tests.lint.test_edge_golden import load


@pytest.fixture()
def documents(tmp_path):
    paths = {}
    for name, payload in (
        ("taxonomy", TAXONOMY),
        ("policy", POLICY),
        ("population", POPULATION),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths[name] = str(path)
    return paths


def _rule_samples(snapshot: dict) -> dict[str, int]:
    return {
        entry["labels"]["code"]: entry["count"]
        for entry in snapshot["timers"]
        if entry["name"] == "lint.rule_seconds"
    }


def _batch_counters(snapshot: dict) -> dict[str, float]:
    """The compile and batch-evaluation counters of a snapshot."""
    return {
        entry["name"]: entry["value"]
        for entry in snapshot["counters"]
        if entry["name"].startswith(("perf.", "engine.batch."))
    }


def _lint(documents, tmp_path, *options):
    metrics = tmp_path / "metrics.json"
    code = main(
        [
            "lint",
            *_base_args(documents),
            "--alpha",
            "0.5",
            "--fail-on",
            "never",
            *options,
            "--metrics",
            str(metrics),
        ]
    )
    assert code == 0
    return json.loads(metrics.read_text())


class TestRuleTimer:
    def test_one_sample_per_rule_that_ran(self, documents, tmp_path, capsys):
        snapshot = _lint(documents, tmp_path)
        assert _rule_samples(snapshot) == {
            info.code: 1 for info in all_rules()
        }
        assert [root["name"] for root in snapshot["spans"]] == ["lint.run"]

    def test_selected_rules_only(self, documents, tmp_path, capsys):
        snapshot = _lint(documents, tmp_path, "--select", "PVL101,PVL110")
        assert _rule_samples(snapshot) == {"PVL101": 1, "PVL110": 1}


class TestOneEvaluation:
    def test_population_rules_compile_and_evaluate_once(
        self, documents, tmp_path, capsys
    ):
        snapshot = _lint(documents, tmp_path)
        counters = _batch_counters(snapshot)
        assert counters["perf.compilations"] == 1
        assert counters["engine.batch.full_evaluations"] == 1
        assert "engine.batch.delta_evaluations" not in counters

    def test_second_certificate_is_a_cache_hit(
        self, documents, tmp_path, capsys
    ):
        snapshot = _lint(documents, tmp_path, "--select", "PVL110,PVL213")
        counters = _batch_counters(snapshot)
        assert counters["perf.compilations"] == 1
        assert counters["engine.batch.full_evaluations"] == 1
        assert counters["engine.batch.cache_hits"] == 1

    def test_document_rules_compile_nothing(self, documents, tmp_path, capsys):
        snapshot = _lint(documents, tmp_path, "--select", "PVL001")
        assert _batch_counters(snapshot) == {}

    def test_unlowered_documents_compile_nothing(self):
        taxonomy, loaded = load("edge_unlowered")
        with observed() as obs:
            report = lint_documents(
                taxonomy, **loaded, config=LintConfig(alpha=0.5)
            )
        assert report  # the spec rules still fire
        assert _batch_counters(obs.snapshot()) == {}


class TestTrace:
    def test_trace_shows_lint_run(self, documents, capsys):
        code = main(
            [
                "lint",
                *_base_args(documents),
                "--format",
                "json",
                "--fail-on",
                "never",
                "--trace",
            ]
        )
        assert code == 0
        assert "lint.run" in capsys.readouterr().err


class TestDisabled:
    def test_one_observer_read_per_run(self, monkeypatch):
        """Off, a run reads the observer once, not once per rule."""
        reads = []

        def counted():
            reads.append(1)
            return active_observer()

        monkeypatch.setattr(registry, "active_observer", counted)
        report = lint_documents(
            parse_taxonomy(TAXONOMY), policy=POLICY, population=POPULATION
        )
        assert len(reads) == 1
        assert report.diagnostics
        assert active_observer() is None
