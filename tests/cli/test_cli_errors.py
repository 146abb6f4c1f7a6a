"""The CLI's operational-error contract: exit 2, one coded line, no traceback.

Every subcommand, fed a missing file, malformed JSON, a structurally
wrong document, a corrupt database, or a bad journal, must exit with
code 2 and print exactly one ``error[PVL9xx]: ...`` line on stderr.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.resilience import FaultPlan, FaultSpec, RunJournal

from .test_cli import POLICY, POPULATION, TAXONOMY


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


def _one_coded_line(capsys, code):
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1, f"expected one stderr line, got: {captured.err!r}"
    assert lines[0].startswith(f"error[{code}]: ")
    assert "Traceback" not in captured.err
    return lines[0]


MISSING = "/nonexistent/never.json"

SUBCOMMAND_ARGS = {
    "evaluate": lambda d: [
        "evaluate", "--taxonomy", d["taxonomy"], "--policy", d["policy"],
        "--population", d["population"],
    ],
    "certify": lambda d: [
        "certify", "--taxonomy", d["taxonomy"], "--policy", d["policy"],
        "--population", d["population"], "--alpha", "0.5",
    ],
    "sweep": lambda d: [
        "sweep", "--taxonomy", d["taxonomy"], "--policy", d["policy"],
        "--population", d["population"], "--steps", "2",
    ],
    "whatif": lambda d: [
        "whatif", "--taxonomy", d["taxonomy"], "--policy", d["policy"],
        "--population", d["population"], "--candidate", d["policy"],
    ],
    "forecast": lambda d: [
        "forecast", "--taxonomy", d["taxonomy"],
        "--population", d["population"], "--history", d["policy"],
        "--candidate", d["policy"],
    ],
    "validate": lambda d: [
        "validate", "--taxonomy", d["taxonomy"], "--policy", d["policy"],
    ],
    "lint": lambda d: [
        "lint", "--taxonomy", d["taxonomy"], "--policy", d["policy"],
    ],
    "init-db": lambda d: [
        "init-db", "--taxonomy", d["taxonomy"], "--policy", d["policy"],
        "--population", d["population"], "--database", d["database"],
    ],
}


class TestMissingFiles:
    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGS))
    def test_missing_taxonomy_is_coded_io_error(
        self, command, documents, tmp_path, capsys
    ):
        documents["taxonomy"] = MISSING
        documents["database"] = str(tmp_path / "db.sqlite")
        assert main(SUBCOMMAND_ARGS[command](documents)) == 2
        _one_coded_line(capsys, "PVL901")

    def test_db_report_missing_database(self, capsys):
        assert main(["db-report", MISSING]) == 2
        # PrivacyDatabase.open refuses a path that is not an existing
        # file before sqlite connects (which would create it).
        _one_coded_line(capsys, "PVL901")

    @pytest.mark.parametrize("command", ["db-report", "db-evict"])
    def test_missing_database_is_not_created(self, command, tmp_path, capsys):
        path = tmp_path / "absent.sqlite"
        assert main([command, str(path)]) == 2
        _one_coded_line(capsys, "PVL901")
        assert not path.exists()


class TestMalformedJson:
    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGS))
    def test_invalid_json_is_coded(self, command, documents, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{definitely not json")
        documents["taxonomy"] = str(bad)
        documents["database"] = str(tmp_path / "db.sqlite")
        assert main(SUBCOMMAND_ARGS[command](documents)) == 2
        _one_coded_line(capsys, "PVL902")


class TestMalformedDocuments:
    def test_wrong_shape_population(self, documents, tmp_path, capsys):
        args = SUBCOMMAND_ARGS["evaluate"](documents)
        bad = str(tmp_path / "badpop.json")
        with open(bad, "w", encoding="utf-8") as handle:
            json.dump({"providers": 42}, handle)
        args[args.index(documents["population"])] = bad
        assert main(args) == 2
        line = _one_coded_line(capsys, "PVL903")
        assert "population" in line

    def test_policy_missing_rules(self, documents, tmp_path, capsys):
        bad = str(tmp_path / "badpol.json")
        with open(bad, "w", encoding="utf-8") as handle:
            json.dump({"name": "x"}, handle)
        args = SUBCOMMAND_ARGS["certify"](documents)
        args[args.index(documents["policy"])] = bad
        assert main(args) == 2
        _one_coded_line(capsys, "PVL903")

    def test_document_wrong_top_level_type(self, documents, tmp_path, capsys):
        bad = str(tmp_path / "badtax.json")
        with open(bad, "w", encoding="utf-8") as handle:
            json.dump(["not", "an", "object"], handle)
        args = SUBCOMMAND_ARGS["evaluate"](documents)
        args[args.index(documents["taxonomy"])] = bad
        assert main(args) == 2
        _one_coded_line(capsys, "PVL903")


class TestStorageErrors:
    def test_garbage_database_is_coded_storage_error(self, tmp_path, capsys):
        path = str(tmp_path / "garbage.sqlite")
        with open(path, "wb") as handle:
            handle.write(b"x" * 4096)
        assert main(["db-report", path]) == 2
        _one_coded_line(capsys, "PVL904")


class TestJournalErrors:
    def test_journal_subcommand_missing_path(self, capsys, tmp_path):
        assert main(["journal", str(tmp_path / "absent.journal")]) == 2
        _one_coded_line(capsys, "PVL905")

    def test_journal_subcommand_garbage_file(self, capsys, tmp_path):
        path = tmp_path / "garbage.journal"
        path.write_bytes(b"not a journal")
        assert main(["journal", str(path)]) == 2
        _one_coded_line(capsys, "PVL905")

    def test_sweep_existing_journal_without_resume(
        self, documents, tmp_path, capsys
    ):
        journal = str(tmp_path / "run.journal")
        args = SUBCOMMAND_ARGS["sweep"](documents) + ["--journal", journal]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 2
        line = _one_coded_line(capsys, "PVL905")
        assert "--resume" in line

    @pytest.mark.parametrize(
        "bad", [["--steps", "-1"], ["--utility", "-5"]], ids=["steps", "utility"]
    )
    def test_sweep_bad_arguments_write_no_journal(
        self, bad, documents, tmp_path, capsys
    ):
        journal = tmp_path / "run.journal"
        args = SUBCOMMAND_ARGS["sweep"](documents) + ["--journal", str(journal)]
        assert main(args + bad) == 2
        _one_coded_line(capsys, "PVL903")
        assert not journal.exists()
        # Nothing ties the path to the refused run: the corrected
        # command (--steps 2) starts afresh without --resume.
        assert main(args) == 0

    def test_sweep_resume_without_journal_flag(self, documents, capsys):
        args = SUBCOMMAND_ARGS["sweep"](documents) + ["--resume"]
        assert main(args) == 2
        _one_coded_line(capsys, "PVL905")

    def test_sweep_resume_missing_journal(self, documents, tmp_path, capsys):
        args = SUBCOMMAND_ARGS["sweep"](documents) + [
            "--journal", str(tmp_path / "absent.journal"), "--resume",
        ]
        assert main(args) == 2
        _one_coded_line(capsys, "PVL905")

    def test_sweep_resume_refuses_shard_checkpoint_journal(
        self, documents, tmp_path, capsys
    ):
        journal = str(tmp_path / "run.journal")
        args = SUBCOMMAND_ARGS["sweep"](documents) + ["--journal", journal]
        # Die right after level 0 is journaled: one level row on disk.
        plan = FaultPlan([FaultSpec(site="sweep.step", kind="kill", at=0)])
        with plan.activate():
            assert main(args) == 2
        _one_coded_line(capsys, "PVL906")
        # Append a shard checkpoint, the row shape worker-pool sweeps
        # journaled between level rows.
        with RunJournal.open(journal) as recorded:
            assert recorded.n_steps == 1
            recorded.record_step(
                {
                    "kind": "shard",
                    "step": 1,
                    "lo": 0,
                    "hi": 1,
                    "violations": [0.0],
                    "counts": [0.0],
                }
            )
        assert main(args + ["--resume"]) == 2
        line = _one_coded_line(capsys, "PVL905")
        assert "shard checkpoints" in line


class TestResumeRoundTrip:
    def test_sweep_journal_then_resume_gives_identical_output(
        self, documents, tmp_path, capsys
    ):
        plain = SUBCOMMAND_ARGS["sweep"](documents) + ["--json"]
        assert main(plain) == 0
        expected = capsys.readouterr().out

        journal = str(tmp_path / "run.journal")
        journaled = plain + ["--journal", journal]
        assert main(journaled) == 0
        assert capsys.readouterr().out == expected

        resumed = journaled + ["--resume"]
        assert main(resumed) == 0
        assert capsys.readouterr().out == expected

    def test_journal_subcommand_reports_progress(
        self, documents, tmp_path, capsys
    ):
        journal = str(tmp_path / "run.journal")
        assert (
            main(SUBCOMMAND_ARGS["sweep"](documents) + ["--journal", journal])
            == 0
        )
        capsys.readouterr()
        assert main(["journal", journal, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "sweep"
        assert payload["steps"] == 3  # --steps 2 -> levels 0..2
        assert payload["verified"] is True


class TestAtomicOutput:
    def test_output_written_atomically(self, documents, tmp_path, capsys):
        out = str(tmp_path / "ledger.json")
        args = SUBCOMMAND_ARGS["sweep"](documents) + ["--output", out]
        assert main(args) == 0
        with open(out, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert [row["step"] for row in payload] == [0, 1, 2]

    def test_evaluate_output_matches_json_mode(self, documents, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        args = SUBCOMMAND_ARGS["evaluate"](documents)
        assert main(args + ["--json", "--output", out]) == 0
        printed = json.loads(capsys.readouterr().out)
        with open(out, encoding="utf-8") as handle:
            assert json.load(handle) == printed
