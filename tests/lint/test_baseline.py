"""Tests for baseline files: recording and suppressing known findings."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.exceptions import LintConfigurationError
from repro.lint import (
    LintConfig,
    apply_baseline,
    diagnostic_fingerprint,
    lint_documents,
    load_baseline,
    render_json,
    write_baseline,
)
from repro.policy_lang import parse_taxonomy

from .conftest import rule

DOCUMENTS = (
    pathlib.Path(__file__).resolve().parents[2] / "examples" / "documents"
)

#: ``repro lint --write-baseline`` over ``examples/documents`` with
#: ``--candidate`` and ``--alpha 0.7``, recorded by an earlier release:
#: six findings (PVL211, PVL213, PVL214) whose payloads hold floats,
#: ints and bools.
RECORDED_BASELINE = pathlib.Path(__file__).parent / "data" / "examples_baseline.json"


@pytest.fixture()
def dirty_report(taxonomy, clean_policy):
    population = {
        "providers": [
            {
                "provider": "permissive",
                "preferences": [
                    rule(
                        visibility="all",
                        granularity="specific",
                        retention="indefinite",
                    ),
                    rule(purpose="resale"),
                ],
            }
        ]
    }
    report = lint_documents(
        taxonomy, policy=clean_policy, population=population
    )
    assert len(report) >= 2, "fixture must produce several findings"
    return report


class TestFingerprints:
    def test_stable_across_runs(self, taxonomy, clean_policy, dirty_report):
        again = lint_documents(
            taxonomy,
            policy=clean_policy,
            population={
                "providers": [
                    {
                        "provider": "permissive",
                        "preferences": [
                            rule(
                                visibility="all",
                                granularity="specific",
                                retention="indefinite",
                            ),
                            rule(purpose="resale"),
                        ],
                    }
                ]
            },
        )
        assert [diagnostic_fingerprint(d) for d in dirty_report] == [
            diagnostic_fingerprint(d) for d in again
        ]

    def test_distinct_findings_have_distinct_fingerprints(self, dirty_report):
        fingerprints = {diagnostic_fingerprint(d) for d in dirty_report}
        assert len(fingerprints) == len(dirty_report)


class TestWriteAndLoad:
    def test_round_trip(self, tmp_path, dirty_report):
        path = tmp_path / "baseline.json"
        recorded = write_baseline(path, dirty_report)
        assert recorded == len(dirty_report)
        fingerprints = load_baseline(path)
        assert fingerprints == {
            diagnostic_fingerprint(d) for d in dirty_report
        }

    def test_written_file_is_sorted_and_versioned(
        self, tmp_path, dirty_report
    ):
        path = tmp_path / "baseline.json"
        write_baseline(path, dirty_report)
        payload = json.loads(path.read_text())
        assert payload["version"] == 1
        assert payload["fingerprints"] == sorted(payload["fingerprints"])

    def test_loads_from_full_json_report(self, tmp_path, dirty_report):
        # `repro lint --format json > report.json` output works directly
        # as a baseline: no separate capture step needed.
        path = tmp_path / "report.json"
        path.write_text(render_json(dirty_report) + "\n")
        assert load_baseline(path) == {
            diagnostic_fingerprint(d) for d in dirty_report
        }

    @pytest.mark.parametrize(
        "content",
        [
            "{not json",
            json.dumps({"version": 1}),
            json.dumps({"version": 1, "fingerprints": "abc"}),
            json.dumps({"version": 1, "fingerprints": [1, 2]}),
        ],
        ids=["unparseable", "missing-key", "not-a-list", "non-strings"],
    )
    def test_malformed_baseline_raises(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_text(content)
        with pytest.raises(LintConfigurationError):
            load_baseline(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(LintConfigurationError):
            load_baseline(tmp_path / "absent.json")


class TestApplyBaseline:
    def test_suppresses_exactly_the_recorded_findings(
        self, tmp_path, dirty_report
    ):
        path = tmp_path / "baseline.json"
        write_baseline(path, dirty_report)
        filtered, suppressed = apply_baseline(
            dirty_report, load_baseline(path)
        )
        assert suppressed == len(dirty_report)
        assert not filtered
        assert filtered.exit_code() == 0

    def test_ratchet_new_findings_still_gate(
        self, tmp_path, taxonomy, clean_policy, dirty_report
    ):
        path = tmp_path / "baseline.json"
        write_baseline(path, dirty_report)
        # A new provider introduces a finding the baseline has not seen.
        grown = lint_documents(
            taxonomy,
            policy=clean_policy,
            population={
                "providers": [
                    {
                        "provider": "permissive",
                        "preferences": [
                            rule(
                                visibility="all",
                                granularity="specific",
                                retention="indefinite",
                            ),
                            rule(purpose="resale"),
                        ],
                    },
                    {
                        "provider": "newcomer",
                        "preferences": [rule(purpose="resale")],
                    },
                ]
            },
        )
        filtered, suppressed = apply_baseline(grown, load_baseline(path))
        assert suppressed == len(dirty_report)
        assert filtered
        assert all(
            d.location.name == "newcomer" for d in filtered
        )
        assert filtered.exit_code() == 1

    def test_empty_baseline_is_identity(self, dirty_report):
        filtered, suppressed = apply_baseline(dirty_report, frozenset())
        assert suppressed == 0
        assert filtered.as_dict() == dirty_report.as_dict()


class TestRecordedBaseline:
    """A baseline file written earlier keeps suppressing today's findings:
    a change to the fingerprint encoding would make every user baseline
    silently suppress nothing."""

    @pytest.fixture(scope="class")
    def examples_report(self):
        def load(name):
            return json.loads((DOCUMENTS / f"{name}.json").read_text())

        return lint_documents(
            parse_taxonomy(load("taxonomy")),
            policy=load("policy"),
            population=load("population"),
            candidate=load("candidate"),
            config=LintConfig(alpha=0.7),
        )

    def test_fingerprints_match_recorded_file(self, examples_report):
        assert examples_report.codes() == ("PVL211", "PVL213", "PVL214")
        assert load_baseline(RECORDED_BASELINE) == {
            diagnostic_fingerprint(d) for d in examples_report
        }

    def test_suppresses_every_recorded_finding(self, examples_report):
        filtered, suppressed = apply_baseline(
            examples_report, load_baseline(RECORDED_BASELINE)
        )
        assert suppressed == 6
        assert not filtered
