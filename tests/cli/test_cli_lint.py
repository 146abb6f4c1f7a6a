"""`repro lint` and `repro validate` exit-code and format behaviour."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cli import main

DOCUMENTS = (
    pathlib.Path(__file__).resolve().parents[2] / "examples" / "documents"
)


@pytest.fixture(scope="module")
def base_args():
    return [
        "--taxonomy",
        str(DOCUMENTS / "taxonomy.json"),
        "--policy",
        str(DOCUMENTS / "policy.json"),
        "--population",
        str(DOCUMENTS / "population.json"),
    ]


def _document_args(tmp_path, **documents):
    """Write each document under *tmp_path*; the arguments naming them."""
    args = []
    for name, payload in documents.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        args += [f"--{name}", str(path)]
    return args


@pytest.fixture()
def broken_documents(tmp_path):
    """A policy with an unknown purpose plus a duplicated preference."""
    taxonomy = json.loads((DOCUMENTS / "taxonomy.json").read_text())
    policy = json.loads((DOCUMENTS / "policy.json").read_text())
    policy["rules"][0]["purpose"] = "resale"
    population = json.loads((DOCUMENTS / "population.json").read_text())
    population["providers"][0]["preferences"].append(
        dict(population["providers"][0]["preferences"][0])
    )
    return _document_args(
        tmp_path, taxonomy=taxonomy, policy=policy, population=population
    )


@pytest.fixture()
def unbounded_documents(tmp_path):
    """Unbounded retention, and a preference with the negative rank -1."""
    taxonomy = json.loads((DOCUMENTS / "taxonomy.json").read_text())
    taxonomy["retention"] = "unbounded"
    policy = json.loads((DOCUMENTS / "policy.json").read_text())
    population = json.loads((DOCUMENTS / "population.json").read_text())
    population["providers"][0]["preferences"][0]["retention"] = -1
    return _document_args(
        tmp_path, taxonomy=taxonomy, policy=policy, population=population
    )


class TestLintExitCodes:
    def test_paper_documents_exit_zero(self, base_args, capsys):
        # The Section 8 documents carry intentional population-layer
        # findings (Ted's inevitable default, subsumed preferences), but
        # none reaches the default --fail-on error gate.
        assert main(["lint", *base_args]) == 0
        out = capsys.readouterr().out
        assert "warning[PVL214]" in out
        assert "0 error(s)" in out

    def test_population_rules_can_be_silenced(self, base_args, capsys):
        code = main(
            ["lint", *base_args,
             "--ignore", "PVL211,PVL214", "--fail-on", "info"]
        )
        assert code == 0
        assert "no findings" in capsys.readouterr().out

    def test_error_findings_exit_one(self, broken_documents, capsys):
        assert main(["lint", *broken_documents]) == 1
        out = capsys.readouterr().out
        assert "error[PVL001]" in out
        assert "warning[PVL005]" in out

    def test_default_gate_ignores_warnings(self, broken_documents, capsys):
        # Suppress the error; only the duplicate-preference warning remains,
        # which the default --fail-on error gate lets through.
        code = main(["lint", *broken_documents, "--ignore", "PVL001"])
        assert code == 0
        assert "warning[PVL005]" in capsys.readouterr().out

    def test_fail_on_warning_tightens_gate(self, broken_documents, capsys):
        code = main(
            ["lint", *broken_documents, "--ignore", "PVL001",
             "--fail-on", "warning"]
        )
        assert code == 1

    def test_fail_on_never_always_exits_zero(self, broken_documents, capsys):
        assert main(["lint", *broken_documents, "--fail-on", "never"]) == 0

    def test_select_restricts_to_named_codes(self, broken_documents, capsys):
        assert main(["lint", *broken_documents, "--select", "PVL005"]) == 0
        out = capsys.readouterr().out
        assert "PVL005" in out
        assert "PVL001" not in out

    def test_alpha_gate_fails_on_paper_example(self, base_args, capsys):
        assert main(["lint", *base_args, "--alpha", "0.5"]) == 1
        assert "PVL110" in capsys.readouterr().out

    def test_candidate_break_even_bound(self, base_args, capsys):
        code = main(
            ["lint", *base_args,
             "--candidate", str(DOCUMENTS / "candidate.json"),
             "--max-extra-utility", "1", "--fail-on", "warning"]
        )
        assert code == 1
        assert "PVL202" in capsys.readouterr().out

    def test_negative_rank_on_unbounded_retention(
        self, unbounded_documents, capsys
    ):
        code = main(["lint", *unbounded_documents, "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        unknown_levels = [
            d for d in payload["diagnostics"] if d["code"] == "PVL002"
        ]
        assert len(unknown_levels) == 1
        assert unknown_levels[0]["location"] == {
            "document": "population",
            "name": "Alice",
            "index": 0,
            "field": "retention",
        }
        assert payload["summary"]["errors"] == 1

    def test_cache_flag_is_a_usage_error(self, base_args, tmp_path, capsys):
        cache = tmp_path / "lint.cache"
        with pytest.raises(SystemExit) as exit_info:
            main(["lint", *base_args, "--cache", str(cache)])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --cache" in capsys.readouterr().err
        assert not cache.exists()


class TestLintFormats:
    def test_json_format_is_parseable(self, broken_documents, capsys):
        main(["lint", *broken_documents, "--format", "json",
              "--fail-on", "never"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["total"] >= 2
        assert "PVL001" in payload["summary"]["codes"]

    def test_sarif_format_is_parseable(self, broken_documents, capsys):
        main(["lint", *broken_documents, "--format", "sarif",
              "--fail-on", "never"])
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["results"]

    def test_taxonomy_only_run(self, capsys):
        code = main(
            ["lint", "--taxonomy", str(DOCUMENTS / "taxonomy.json")]
        )
        assert code == 0


class TestValidateExitCodes:
    def test_clean_documents_exit_zero(self, base_args, capsys):
        assert main(["validate", *base_args]) == 0
        assert "OK" in capsys.readouterr().out

    def test_problems_exit_one_with_legacy_prefix(self, broken_documents,
                                                  capsys):
        assert main(["validate", *broken_documents]) == 1
        out = capsys.readouterr().out
        assert "PROBLEM: policy 'section-8' rule 0: unknown purpose" in out

    def test_negative_rank_on_unbounded_retention(
        self, unbounded_documents, capsys
    ):
        assert main(["validate", *unbounded_documents]) == 1
        out = capsys.readouterr().out
        assert (
            "PROBLEM: preferences of 'Alice' entry 0: retention value -1 "
            "is not on the 'retention' ladder"
        ) in out
