"""Unit tests for certification documents."""

from __future__ import annotations

import json

import pytest

from repro.analysis import certification_document


class TestCertificationDocument:
    def test_document_fields(self, paper_engine):
        document = certification_document(paper_engine, alpha=0.5)
        payload = document.as_dict()
        assert payload["claim"] == "alpha-PPDB(alpha=0.5)"
        assert payload["satisfied"] is False
        assert payload["violation_probability"] == pytest.approx(2 / 3)
        assert payload["violated_providers"] == ["Ted", "Bob"]
        assert payload["default_probability"] == pytest.approx(1 / 3)
        assert payload["total_violations"] == 140.0

    def test_json_round_trip(self, paper_engine):
        document = certification_document(paper_engine, alpha=0.7)
        decoded = json.loads(document.to_json())
        assert decoded["satisfied"] is True

    def test_verify_accepts_honest_document(self, paper_engine):
        assert certification_document(paper_engine, alpha=0.5).verify()
        assert certification_document(paper_engine, alpha=0.9).verify()

    def test_verify_rejects_tampered_probability(self, paper_engine):
        from dataclasses import replace

        document = certification_document(paper_engine, alpha=0.5)
        tampered = replace(
            document,
            certificate=replace(
                document.certificate, violation_probability=0.1
            ),
        )
        assert not tampered.verify()

    def test_verify_rejects_tampered_verdict(self, paper_engine):
        from dataclasses import replace

        document = certification_document(paper_engine, alpha=0.5)
        tampered = replace(
            document,
            certificate=replace(document.certificate, satisfied=True),
        )
        assert not tampered.verify()

    def test_margin_in_document(self, paper_engine):
        payload = certification_document(paper_engine, alpha=0.5).as_dict()
        assert payload["margin"] == pytest.approx(0.5 - 2 / 3)


class TestBatchCertificationDocument:
    def test_static_document_runs_the_interval_analysis_once(self, monkeypatch):
        import repro.lint.intervals as intervals
        from repro.analysis import batch_certification_document
        from repro.datasets import healthcare_scenario
        from repro.perf import BatchViolationEngine

        calls = []
        analysis = intervals.interval_analysis

        def counting(*args, **kwargs):
            calls.append(1)
            return analysis(*args, **kwargs)

        monkeypatch.setattr(intervals, "interval_analysis", counting)
        scenario = healthcare_scenario(40, seed=3)
        engine = BatchViolationEngine(scenario.population)
        document = batch_certification_document(
            engine, scenario.policy, 0.5, static=True
        )
        assert len(calls) == 1
        evaluated = batch_certification_document(engine, scenario.policy, 0.5)
        assert document.certificate == evaluated.certificate
