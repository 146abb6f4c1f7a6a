"""The JSON payloads of ``evaluate``, ``certify`` and ``sweep``, byte for byte.

Each command renders its payload once: ``--json`` prints that text and
``--output`` writes the same text plus a newline, so stdout and the
exported file are the same bytes.  The golden files under
``tests/cli/golden/`` pin those bytes for the Section 8 example documents
(``examples/documents``).
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro.cli as cli
from repro.analysis.certification import CertificationDocument
from repro.cli import main
from repro.core import ViolationEngine

ROOT = Path(__file__).resolve().parents[2]
DOCUMENTS = ROOT / "examples" / "documents"
GOLDEN = Path(__file__).parent / "golden"

INPUTS = [
    "--taxonomy", str(DOCUMENTS / "taxonomy.json"),
    "--policy", str(DOCUMENTS / "policy.json"),
    "--population", str(DOCUMENTS / "population.json"),
]

#: golden name -> (argv after the documents, expected exit code)
JSON_COMMANDS = {
    "evaluate": (["evaluate", "--json"], 0),
    "certify": (["certify", "--alpha", "0.5", "--json"], 1),
    "sweep": (["sweep", "--steps", "2", "--json"], 0),
}


def _run(argv, tmp_path, capsys, *, output=True):
    out = tmp_path / "payload.json"
    command, *options = argv
    args = [command, *INPUTS, *options]
    if output:
        args += ["--output", str(out)]
    code = main(args)
    stdout = capsys.readouterr().out
    return code, stdout, out.read_text() if output else None


@pytest.mark.parametrize("name", sorted(JSON_COMMANDS))
def test_json_stdout_and_output_bytes(name, tmp_path, capsys):
    argv, expected_code = JSON_COMMANDS[name]
    code, stdout, exported = _run(argv, tmp_path, capsys)
    golden = (GOLDEN / f"{name}.json").read_text()
    assert code == expected_code
    assert stdout == golden
    assert exported == golden


def test_certify_text_with_output(tmp_path, capsys):
    code, stdout, exported = _run(
        ["certify", "--alpha", "0.7"], tmp_path, capsys
    )
    assert code == 0
    assert stdout == (GOLDEN / "certify-text.stdout").read_text()
    assert exported == (GOLDEN / "certify-text.json").read_text()


@pytest.mark.parametrize(
    "options, output, golden",
    [
        (["--alpha", "0.5", "--json"], False, "certify.json"),
        (["--alpha", "0.7"], False, "certify-text.stdout"),
        (["--alpha", "0.7"], True, "certify-text.stdout"),
    ],
    ids=["json", "text", "output"],
)
def test_certify_runs_no_reference_evaluation(
    options, output, golden, monkeypatch, tmp_path, capsys
):
    # The certificate comes from the batch engine; the reference engine
    # is only the oracle the parity suites hold it against.
    def refuse(engine):
        raise AssertionError("certify ran a reference-engine evaluation")

    monkeypatch.setattr(ViolationEngine, "_evaluate", refuse)
    code, stdout, exported = _run(
        ["certify", *options], tmp_path, capsys, output=output
    )
    assert code in (0, 1)
    assert stdout == (GOLDEN / golden).read_text()
    if output:
        assert exported == (GOLDEN / "certify-text.json").read_text()


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestPayloadBuiltOnce:
    def test_evaluate(self, monkeypatch, tmp_path, capsys):
        calls = _count_calls(monkeypatch, cli, "_report_payload")
        _run(["evaluate", "--json"], tmp_path, capsys)
        assert len(calls) == 1

    def test_evaluate_table_builds_no_payload(
        self, monkeypatch, tmp_path, capsys
    ):
        calls = _count_calls(monkeypatch, cli, "_report_payload")
        _run(["evaluate"], tmp_path, capsys, output=False)
        assert calls == []

    def test_certify(self, monkeypatch, tmp_path, capsys):
        calls = _count_calls(monkeypatch, CertificationDocument, "to_json")
        _run(["certify", "--alpha", "0.5", "--json"], tmp_path, capsys)
        assert len(calls) == 1

    def test_sweep(self, monkeypatch, tmp_path, capsys):
        calls = _count_calls(monkeypatch, cli, "_sweep_payload")
        _run(["sweep", "--steps", "2", "--json"], tmp_path, capsys)
        assert len(calls) == 1
