"""End-to-end observability through the CLI.

Drives ``main(argv)`` with the Section 8 documents, the global
``--metrics``/``--trace``/``-v`` flags, injected faults, and the
``repro obs`` renderer over the written snapshot.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import active_observer
from repro.resilience import FaultPlan, FaultSpec

from tests.cli.test_cli import POLICY, POPULATION, TAXONOMY, _base_args
from tests.cli.test_cli_payloads import GOLDEN, INPUTS


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


def _counters(snapshot: dict) -> dict[str, float]:
    totals: dict[str, float] = {}
    for entry in snapshot["counters"]:
        totals[entry["name"]] = totals.get(entry["name"], 0.0) + entry["value"]
    return totals


class TestMetricsFlag:
    def test_sweep_writes_a_snapshot(self, documents, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        code = main(
            [
                "sweep",
                *_base_args(documents),
                "--steps",
                "2",
                "--json",
                "--metrics",
                str(metrics),
            ]
        )
        assert code == 0
        snapshot = json.loads(metrics.read_text())
        counters = _counters(snapshot)
        assert counters["sweep.steps"] == 3.0
        assert counters["perf.compilations"] == 1.0
        assert counters["widening.applications"] >= 2.0
        timer_names = {entry["name"] for entry in snapshot["timers"]}
        assert "sweep.step_seconds" in timer_names
        assert "engine.batch.evaluate_seconds" in timer_names
        assert [root["name"] for root in snapshot["spans"]] == ["sweep.run"]

    def test_certify_compiles_once_and_runs_no_reference_engine(
        self, documents, tmp_path, capsys
    ):
        metrics = tmp_path / "metrics.json"
        code = main(
            [
                "certify",
                *_base_args(documents),
                "--alpha",
                "0.7",
                "--json",
                "--metrics",
                str(metrics),
            ]
        )
        assert code == 0
        counters = _counters(json.loads(metrics.read_text()))
        assert counters["perf.compilations"] == 1.0
        assert "engine.reference.evaluations" not in counters

    def test_certify_walks_the_parsed_documents(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        code = main(
            [
                "certify",
                *INPUTS,
                "--alpha",
                "0.7",
                "--json",
                "--metrics",
                str(metrics),
            ]
        )
        assert code == 0
        compiles = {
            entry["labels"]["source"]: entry["count"]
            for entry in json.loads(metrics.read_text())["timers"]
            if entry["name"] == "perf.compile_seconds"
        }
        assert compiles == {"walk": 1}

    def test_snapshot_is_key_sorted_and_stable(self, documents, tmp_path, capsys):
        paths = [tmp_path / "m1.json", tmp_path / "m2.json"]
        for path in paths:
            main(
                [
                    "evaluate",
                    *_base_args(documents),
                    "--json",
                    "--metrics",
                    str(path),
                ]
            )
            capsys.readouterr()
        first = json.loads(paths[0].read_text())
        second = json.loads(paths[1].read_text())
        assert [c["name"] for c in first["counters"]] == [
            c["name"] for c in second["counters"]
        ]
        assert first["counters"] == second["counters"]

    def test_observer_disabled_after_command(self, documents, tmp_path, capsys):
        main(
            [
                "evaluate",
                *_base_args(documents),
                "--json",
                "--metrics",
                str(tmp_path / "m.json"),
            ]
        )
        assert active_observer() is None

    def test_no_flags_means_no_observer(self, documents, capsys):
        assert main(["evaluate", *_base_args(documents), "--json"]) == 0
        assert active_observer() is None


class TestGuardedSweep:
    def test_unjournaled_guarded_sweep(self, tmp_path, capsys):
        """``--guarded`` without ``--journal`` prints the plain sweep's
        bytes, spot-checks every level and compiles once."""
        metrics = tmp_path / "metrics.json"
        code = main(
            [
                "sweep",
                *INPUTS,
                "--steps",
                "2",
                "--json",
                "--guarded",
                "--metrics",
                str(metrics),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == (GOLDEN / "sweep.json").read_text()
        counters = _counters(json.loads(metrics.read_text()))
        assert counters["guardrail.checks"] == 3.0
        assert counters["perf.compilations"] == 1.0
        assert "guardrail.failures" not in counters


class TestFaultCountersEndToEnd:
    def test_injected_faults_surface_in_the_snapshot(
        self, documents, tmp_path, capsys
    ):
        """A chaos sweep's full story lands in one snapshot.

        The nan fault poisons the batch severities (PVL302), degrading
        the guarded engine to the reference oracle; the locked fault
        forces one connect-time retry.  Engine, storage-retry, guardrail,
        fault, journal, and resume counters must all be present.
        """
        metrics = tmp_path / "metrics.json"
        journal = tmp_path / "run.journal"
        plan = FaultPlan(
            [
                FaultSpec(site="engine.violations", kind="nan", at=0),
                FaultSpec(site="db.connect", kind="locked", at=0),
            ]
        )
        with plan.activate():
            code = main(
                [
                    "sweep",
                    *_base_args(documents),
                    "--steps",
                    "2",
                    "--json",
                    "--journal",
                    str(journal),
                    "--guarded",
                    "--metrics",
                    str(metrics),
                ]
            )
        assert code == 0
        assert plan.fired  # both faults actually fired
        counters = _counters(json.loads(metrics.read_text()))
        # fault layer
        assert counters["faults.fired"] == 2.0
        # storage layer: the locked connect was retried
        assert counters["storage.locked_retries"] >= 1.0
        assert counters["storage.connections"] >= 1.0
        # guardrail: the poisoned report degraded the run
        assert counters["guardrail.checks"] >= 1.0
        assert counters["guardrail.failures"] == 1.0
        assert counters["guardrail.degradations"] == 1.0
        assert counters["guardrail.reference_evaluations"] >= 1.0
        # degraded evaluations run the reference engine
        assert counters["engine.reference.evaluations"] >= 1.0
        # journal + resume layers recorded the live steps, which the
        # sweep counts as it counts the levels of an unjournaled run
        assert counters["journal.steps_recorded"] == 3.0
        assert counters["resume.live_steps"] == 3.0
        assert counters["sweep.steps"] == 3.0

    def test_fault_labels_recorded(self, documents, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        journal = tmp_path / "run.journal"
        plan = FaultPlan(
            [FaultSpec(site="engine.violations", kind="nan", at=0)]
        )
        with plan.activate():
            main(
                [
                    "sweep",
                    *_base_args(documents),
                    "--steps",
                    "1",
                    "--json",
                    "--journal",
                    str(journal),
                    "--guarded",
                    "--metrics",
                    str(metrics),
                ]
            )
        snapshot = json.loads(metrics.read_text())
        [fired] = [
            entry
            for entry in snapshot["counters"]
            if entry["name"] == "faults.fired"
        ]
        assert fired["labels"] == {
            "site": "engine.violations",
            "kind": "nan",
        }


class TestTraceAndVerbose:
    def test_trace_prints_span_tree(self, documents, capsys):
        code = main(
            ["sweep", *_base_args(documents), "--steps", "1", "--json", "--trace"]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "sweep.run" in err

    def test_trace_without_spans_says_so(self, documents, capsys):
        code = main(["validate", "--taxonomy", documents["taxonomy"], "--trace"])
        assert code == 0
        assert "no spans recorded" in capsys.readouterr().err


class TestObsSubcommand:
    def _snapshot(self, documents, tmp_path, capsys) -> str:
        metrics = tmp_path / "metrics.json"
        main(
            [
                "sweep",
                *_base_args(documents),
                "--steps",
                "1",
                "--json",
                "--metrics",
                str(metrics),
            ]
        )
        capsys.readouterr()
        return str(metrics)

    def test_text_render(self, documents, tmp_path, capsys):
        path = self._snapshot(documents, tmp_path, capsys)
        assert main(["obs", path]) == 0
        out = capsys.readouterr().out
        assert "metrics snapshot:" in out
        assert "sweep.steps" in out

    def test_prometheus_render(self, documents, tmp_path, capsys):
        path = self._snapshot(documents, tmp_path, capsys)
        assert main(["obs", path, "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_sweep_steps_total counter" in out

    def test_json_render_round_trips(self, documents, tmp_path, capsys):
        path = self._snapshot(documents, tmp_path, capsys)
        assert main(["obs", path, "--format", "json"]) == 0
        rendered = json.loads(capsys.readouterr().out)
        assert rendered == json.loads(open(path).read())

    def test_non_snapshot_document_rejected(self, documents, capsys):
        code = main(["obs", documents["policy"]])
        assert code == 2
        assert "error[PVL9" in capsys.readouterr().err

    def test_missing_file_is_coded_io_error(self, tmp_path, capsys):
        code = main(["obs", str(tmp_path / "absent.json")])
        assert code == 2
        assert "error[PVL9" in capsys.readouterr().err


class TestOutputByteStability:
    """``--output`` exports must be byte-for-byte stable across runs."""

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("evaluate", []),
            ("sweep", ["--steps", "2"]),
            ("certify", ["--alpha", "0.7"]),
        ],
    )
    def test_two_runs_identical(
        self, documents, tmp_path, capsys, command, extra
    ):
        outputs = [tmp_path / "first.json", tmp_path / "second.json"]
        for path in outputs:
            code = main(
                [command, *_base_args(documents), *extra, "--output", str(path)]
            )
            assert code in (0, 1)
            capsys.readouterr()
        assert outputs[0].read_bytes() == outputs[1].read_bytes()

    def test_output_keys_sorted(self, documents, tmp_path, capsys):
        path = tmp_path / "report.json"
        main(["evaluate", *_base_args(documents), "--output", str(path)])
        capsys.readouterr()
        payload = json.loads(path.read_text())
        assert list(payload) == sorted(payload)
