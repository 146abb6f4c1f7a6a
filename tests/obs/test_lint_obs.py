"""Lint explains where its time goes: the ``lint.run`` span and the
``lint.rule_seconds{code}`` timer.

While an observer is active, a lint run (one
:func:`~repro.lint.registry.run_rules` call) is one ``lint.run`` span and
each rule's check one timer sample; while none is, a run reads the
observer once and records nothing.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.lint import all_rules, lint_documents
from repro.lint import registry
from repro.obs import active_observer
from repro.policy_lang import parse_taxonomy

from tests.cli.test_cli import POLICY, POPULATION, TAXONOMY, _base_args


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
