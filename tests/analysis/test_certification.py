"""Unit tests for certification documents."""

from __future__ import annotations

import json

import pytest

from repro.analysis import batch_certification_document
from repro.perf import BatchViolationEngine


@pytest.fixture()
def document_at(paper_policy, paper_population):
    """The Section 8 example's document at a given alpha."""
    engine = BatchViolationEngine(paper_population)
    return lambda alpha: batch_certification_document(engine, paper_policy, alpha)


class TestCertificationDocument:
    def test_document_fields(self, document_at):
        document = document_at(0.5)
        payload = document.as_dict()
        assert payload["claim"] == "alpha-PPDB(alpha=0.5)"
        assert payload["satisfied"] is False
        assert payload["violation_probability"] == pytest.approx(2 / 3)
        assert payload["violated_providers"] == ["Ted", "Bob"]
        assert payload["default_probability"] == pytest.approx(1 / 3)
        assert payload["total_violations"] == 140.0

    def test_json_round_trip(self, document_at):
        document = document_at(0.7)
        decoded = json.loads(document.to_json())
        assert decoded["satisfied"] is True

    def test_verify_accepts_honest_document(self, document_at):
        assert document_at(0.5).verify()
        assert document_at(0.9).verify()

    def test_verify_rejects_tampered_probability(self, document_at):
        from dataclasses import replace

        document = document_at(0.5)
        tampered = replace(
            document,
            certificate=replace(
                document.certificate, violation_probability=0.1
            ),
        )
        assert not tampered.verify()

    def test_verify_rejects_tampered_verdict(self, document_at):
        from dataclasses import replace

        document = document_at(0.5)
        tampered = replace(
            document,
            certificate=replace(document.certificate, satisfied=True),
        )
        assert not tampered.verify()

    def test_margin_in_document(self, document_at):
        payload = document_at(0.5).as_dict()
        assert payload["margin"] == pytest.approx(0.5 - 2 / 3)
