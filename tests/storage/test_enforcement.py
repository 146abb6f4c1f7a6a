"""Unit tests for the purpose-aware access gate."""

from __future__ import annotations

import pytest

from repro.core import Dimension, PrivacyTuple, ProviderPreferences
from repro.exceptions import AccessDeniedError
from repro.storage import (
    AccessRequest,
    EnforcementMode,
    PrivacyDatabase,
)


@pytest.fixture()
def db():
    database = PrivacyDatabase.create(":memory:")
    repo = database.repository
    repo.ensure_attribute("weight", 4.0)
    repo.ensure_purpose("billing")
    for pid, rank, value in (("alice", 3, 60), ("bob", 1, 82)):
        repo.add_provider(pid)
        repo.put_datum(pid, "weight", value)
        repo.add_preferences(
            ProviderPreferences(
                pid, [("weight", PrivacyTuple("billing", rank, rank, rank))]
            )
        )
    yield database
    database.close()


class TestEnforceMode:
    def test_compliant_request_returns_values(self, db):
        gate = db.gate()
        decision = gate.request(
            AccessRequest("weight", PrivacyTuple("billing", 1, 1, 1))
        )
        assert decision.allowed
        assert not decision.violates
        assert decision.values == {"alice": "60", "bob": "82"}

    def test_violating_request_denied(self, db):
        gate = db.gate()
        with pytest.raises(AccessDeniedError) as excinfo:
            gate.request(
                AccessRequest("weight", PrivacyTuple("billing", 2, 2, 2))
            )
        decision = excinfo.value.decision
        assert not decision.allowed
        assert decision.violated_providers == ("bob",)
        assert decision.values is None

    def test_findings_identify_dimensions(self, db):
        gate = db.gate()
        with pytest.raises(AccessDeniedError) as excinfo:
            gate.request(
                AccessRequest("weight", PrivacyTuple("billing", 2, 1, 1))
            )
        findings = excinfo.value.decision.findings
        assert {f.dimension for f in findings} == {Dimension.VISIBILITY}
        assert all(f.provider_id == "bob" for f in findings)
        assert all(f.amount == 1 for f in findings)

    def test_scoped_request_only_checks_one_provider(self, db):
        gate = db.gate()
        decision = gate.request(
            AccessRequest(
                "weight", PrivacyTuple("billing", 2, 2, 2), provider_id="alice"
            )
        )
        assert decision.allowed
        assert decision.values == {"alice": "60"}

    def test_scoped_request_to_violated_provider_denied(self, db):
        gate = db.gate()
        with pytest.raises(AccessDeniedError):
            gate.request(
                AccessRequest(
                    "weight", PrivacyTuple("billing", 2, 2, 2), provider_id="bob"
                )
            )

    def test_request_for_absent_data_trivially_allowed(self, db):
        gate = db.gate()
        decision = gate.request(
            AccessRequest(
                "weight",
                PrivacyTuple("billing", 4, 4, 4),
                provider_id="nobody",
            )
        )
        assert decision.allowed
        assert decision.values == {"nobody": None}


class TestImplicitZeroAtGate:
    def test_unknown_purpose_violates_everyone(self, db):
        db.repository.ensure_purpose("marketing")
        gate = db.gate()
        with pytest.raises(AccessDeniedError) as excinfo:
            gate.request(
                AccessRequest("weight", PrivacyTuple("marketing", 1, 0, 0))
            )
        assert excinfo.value.decision.violated_providers == ("alice", "bob")


class TestAuditMode:
    def test_violating_request_allowed_but_logged(self, db):
        gate = db.gate(mode=EnforcementMode.AUDIT)
        decision = gate.request(
            AccessRequest("weight", PrivacyTuple("billing", 2, 2, 2))
        )
        assert decision.allowed
        assert decision.violates
        assert decision.values is not None
        report = db.audit_log.report()
        assert report.violations_logged == 1
        assert report.denied == 0

    def test_observed_violation_rate(self, db):
        gate = db.gate(mode=EnforcementMode.AUDIT)
        gate.request(AccessRequest("weight", PrivacyTuple("billing", 1, 1, 1)))
        gate.request(AccessRequest("weight", PrivacyTuple("billing", 2, 2, 2)))
        report = db.audit_log.report()
        assert report.observed_violation_rate == pytest.approx(0.5)


class TestLogging:
    def test_every_decision_logged(self, db):
        gate = db.gate()
        gate.request(AccessRequest("weight", PrivacyTuple("billing", 1, 1, 1)))
        with pytest.raises(AccessDeniedError):
            gate.request(
                AccessRequest("weight", PrivacyTuple("billing", 4, 4, 4))
            )
        events = list(db.audit_log.events())
        assert [e.event for e in events] == ["access-granted", "access-denied"]

    def test_denied_event_carries_findings_detail(self, db):
        gate = db.gate()
        with pytest.raises(AccessDeniedError):
            gate.request(
                AccessRequest("weight", PrivacyTuple("billing", 4, 4, 4))
            )
        event = list(db.audit_log.events(only_violations=True))[0]
        assert event.detail["violated_providers"] == ["alice", "bob"]
        assert event.detail["findings"]

    def test_event_filtering_by_attribute(self, db):
        gate = db.gate()
        gate.request(AccessRequest("weight", PrivacyTuple("billing", 1, 1, 1)))
        assert list(db.audit_log.events(attribute="weight"))
        assert not list(db.audit_log.events(attribute="age"))
