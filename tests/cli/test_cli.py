"""End-to-end tests for the command-line interface.

The CLI is exercised through ``main(argv)`` with real JSON documents on
disk (the Section 8 example, expressed in the policy language), checking
output, exit codes, and the sqlite subcommands.
"""

from __future__ import annotations

import argparse
import json

import pytest

from repro import cli
from repro.cli import main

TAXONOMY = {
    "purposes": ["pr"],
    "visibility": [f"v{i}" for i in range(6)],
    "granularity": [f"g{i}" for i in range(6)],
    "retention": [f"r{i}" for i in range(6)],
}

POLICY = {
    "name": "section-8",
    "rules": [
        {
            "attribute": "Weight",
            "purpose": "pr",
            "visibility": 2,
            "granularity": 2,
            "retention": 2,
        },
        {
            "attribute": "Age",
            "purpose": "pr",
            "visibility": 1,
            "granularity": 1,
            "retention": 1,
        },
    ],
}


def _provider(name, ranks, sigma, threshold):
    v, g, r = ranks
    return {
        "provider": name,
        "threshold": threshold,
        "preferences": [
            {
                "attribute": "Weight",
                "purpose": "pr",
                "visibility": v,
                "granularity": g,
                "retention": r,
            },
            {
                "attribute": "Age",
                "purpose": "pr",
                "visibility": 2,
                "granularity": 2,
                "retention": 2,
            },
        ],
        "sensitivities": {
            "Weight": {
                "value": sigma[0],
                "visibility": sigma[1],
                "granularity": sigma[2],
                "retention": sigma[3],
            }
        },
    }


POPULATION = {
    "attribute_sensitivities": {"Weight": 4.0, "Age": 1.0},
    "providers": [
        _provider("Alice", (4, 3, 5), (1, 1, 2, 1), 10),
        _provider("Ted", (4, 1, 4), (3, 1, 5, 2), 50),
        _provider("Bob", (2, 1, 1), (4, 1, 3, 2), 100),
    ],
}


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


def _base_args(documents):
    return [
        "--taxonomy",
        documents["taxonomy"],
        "--policy",
        documents["policy"],
        "--population",
        documents["population"],
    ]


class TestEvaluate:
    def test_table_output(self, documents, capsys):
        assert main(["evaluate", *_base_args(documents)]) == 0
        out = capsys.readouterr().out
        assert "P(W)       = 0.6667" in out
        assert "P(Default) = 0.3333" in out
        assert "Violations = 140" in out

    def test_json_output(self, documents, capsys):
        assert main(["evaluate", *_base_args(documents), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_violations"] == 140.0
        providers = {p["provider"]: p for p in payload["providers"]}
        assert providers["Ted"]["defaulted"] is True
        assert providers["Bob"]["violation"] == 80.0


class TestCertify:
    def test_satisfied_exit_zero(self, documents, capsys):
        code = main(["certify", *_base_args(documents), "--alpha", "0.7"])
        assert code == 0
        assert "SATISFIED" in capsys.readouterr().out

    def test_violated_exit_one(self, documents, capsys):
        code = main(["certify", *_base_args(documents), "--alpha", "0.5"])
        assert code == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_json_document(self, documents, capsys):
        main(["certify", *_base_args(documents), "--alpha", "0.7", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["satisfied"] is True
        assert payload["violated_providers"] == ["Ted", "Bob"]


class TestSweep:
    def test_ledger(self, documents, capsys):
        code = main(
            [
                "sweep",
                *_base_args(documents),
                "--steps",
                "2",
                "--utility",
                "10",
                "--extra-per-step",
                "6",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "expansion sweep" in out
        assert "peak at step" in out

    def test_json(self, documents, capsys):
        main(
            ["sweep", *_base_args(documents), "--steps", "1", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["step"] == 0
        assert len(payload) == 2


class TestWhatIf:
    def test_candidate_comparison(self, documents, tmp_path, capsys):
        candidate = dict(POLICY)
        candidate["name"] = "wider"
        candidate = json.loads(json.dumps(candidate))
        candidate["rules"][0]["granularity"] = 3
        path = tmp_path / "candidate.json"
        path.write_text(json.dumps(candidate))
        code = main(
            [
                "whatif",
                *_base_args(documents),
                "--candidate",
                str(path),
                "--utility",
                "10",
                "--extra",
                "6",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["candidate"] == "wider"
        assert payload["violation_probability_delta"] >= 0


class TestValidate:
    def test_valid_documents(self, documents, capsys):
        code = main(
            [
                "validate",
                "--taxonomy",
                documents["taxonomy"],
                "--policy",
                documents["policy"],
                "--population",
                documents["population"],
            ]
        )
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_invalid_policy_exit_one(self, documents, tmp_path, capsys):
        bad = json.loads(json.dumps(POLICY))
        bad["rules"][0]["purpose"] = "resale"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code = main(
            [
                "validate",
                "--taxonomy",
                documents["taxonomy"],
                "--policy",
                str(path),
            ]
        )
        assert code == 1
        assert "PROBLEM" in capsys.readouterr().out


class TestDatabaseCommands:
    def test_init_report_evict_cycle(self, documents, tmp_path, capsys):
        db_path = str(tmp_path / "ppdb.sqlite")
        assert (
            main(
                [
                    "init-db",
                    *_base_args(documents),
                    "--database",
                    db_path,
                ]
            )
            == 0
        )
        assert "created" in capsys.readouterr().out

        assert main(["db-report", db_path]) == 0
        out = capsys.readouterr().out
        assert "P(W)=0.6667" in out

        assert main(["db-evict", db_path]) == 0
        assert "Ted" in capsys.readouterr().out

        assert main(["db-evict", db_path]) == 0
        assert "no defaulted providers" in capsys.readouterr().out


class TestForecast:
    def test_forecast_from_history(self, documents, tmp_path, capsys):
        # History: the baseline, then a granularity widening that evicts
        # Ted.  Candidate: the same widening (in-sample -> exact).
        widened = json.loads(json.dumps(POLICY))
        widened["name"] = "wider"
        widened["rules"][0]["granularity"] = 3
        widened_path = tmp_path / "wider.json"
        widened_path.write_text(json.dumps(widened))
        code = main(
            [
                "forecast",
                "--taxonomy",
                documents["taxonomy"],
                "--population",
                documents["population"],
                "--history",
                documents["policy"],
                str(widened_path),
                "--candidate",
                str(widened_path),
                "--utility",
                "10",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        # Ted departed at the baseline already (60 > 50); the widening
        # raises Bob to 60 + 2*4*4*3 - 48 = 128 > 100, so he goes too.
        assert payload["certain_defaults"] == ["Ted", "Bob"]
        assert payload["expected_defaults"] == 2.0
        # N 3 -> 1: T* = 10 * (3/1 - 1) = 20.
        assert payload["break_even_extra_utility"] == pytest.approx(20.0)

    def test_forecast_text_output(self, documents, capsys):
        code = main(
            [
                "forecast",
                "--taxonomy",
                documents["taxonomy"],
                "--population",
                documents["population"],
                "--history",
                documents["policy"],
                "--candidate",
                documents["policy"],
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # Ted already defaults at the baseline policy (Violation 60 > 50).
        assert "expected 1.0 defaults" in out


class TestErrorHandling:
    def test_missing_file_exit_two(self, documents, capsys):
        code = main(
            [
                "evaluate",
                "--taxonomy",
                "/nonexistent.json",
                "--policy",
                documents["policy"],
                "--population",
                documents["population"],
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_json_exit_two(self, documents, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = main(
            [
                "evaluate",
                "--taxonomy",
                str(path),
                "--policy",
                documents["policy"],
                "--population",
                documents["population"],
            ]
        )
        assert code == 2

    def test_model_error_exit_two(self, documents, tmp_path, capsys):
        bad = json.loads(json.dumps(POLICY))
        bad["rules"][0]["purpose"] = "resale"  # unknown purpose
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code = main(
            [
                "evaluate",
                "--taxonomy",
                documents["taxonomy"],
                "--policy",
                str(path),
                "--population",
                documents["population"],
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestParser:
    def test_main_builds_the_parser_once_per_process(
        self, documents, monkeypatch, capsys
    ):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        cli.build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(["evaluate", *_base_args(documents)]) == 0
        first = len(built)
        assert first > 0
        # A second command in the same process reuses the parser.
        assert main(["certify", *_base_args(documents), "--alpha", "0.7"]) == 0
        assert len(built) == first
