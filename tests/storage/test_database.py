"""Unit tests for PrivacyDatabase lifecycle and high-level operations."""

from __future__ import annotations

import pytest

from repro.core import HousePolicy, PrivacyTuple, ViolationEngine
from repro.datasets import (
    crm_scenario,
    government_scenario,
    healthcare_scenario,
    social_network_scenario,
)
from repro.exceptions import SchemaMismatchError, StorageError
from repro.simulation import WideningStep, widen
from repro.storage import PrivacyDatabase, SCHEMA_VERSION


class TestLifecycle:
    def test_create_in_memory(self):
        db = PrivacyDatabase.create(":memory:")
        assert db.certify(1.0).satisfied
        db.close()

    def test_create_on_disk_and_reopen(self, tmp_path, paper_policy, paper_population):
        path = str(tmp_path / "ppdb.sqlite")
        with PrivacyDatabase.create(path) as db:
            db.install(paper_policy, paper_population)
        with PrivacyDatabase.open(path) as db:
            report = db.engine().report()
            assert report.n_providers == 3
            assert report.total_violations == 140.0

    def test_create_refuses_to_clobber(self, tmp_path, paper_policy, paper_population):
        path = str(tmp_path / "ppdb.sqlite")
        with PrivacyDatabase.create(path) as db:
            db.install(paper_policy, paper_population)
        with pytest.raises(StorageError):
            PrivacyDatabase.create(path)

    def test_open_non_database_raises(self, tmp_path):
        path = str(tmp_path / "other.sqlite")
        import sqlite3

        connection = sqlite3.connect(path)
        connection.execute("CREATE TABLE unrelated (x INT)")
        connection.commit()
        connection.close()
        with pytest.raises(SchemaMismatchError):
            PrivacyDatabase.open(path)

    def test_open_wrong_version_raises(self, tmp_path, paper_policy, paper_population):
        path = str(tmp_path / "ppdb.sqlite")
        with PrivacyDatabase.create(path) as db:
            db.install(paper_policy, paper_population)
        import sqlite3

        connection = sqlite3.connect(path)
        connection.execute(
            "UPDATE meta SET value = '999' WHERE key = 'schema_version'"
        )
        connection.commit()
        connection.close()
        with pytest.raises(SchemaMismatchError):
            PrivacyDatabase.open(path)

    def test_context_manager_rolls_back_on_error(self, tmp_path, paper_policy, paper_population):
        path = str(tmp_path / "ppdb.sqlite")
        with PrivacyDatabase.create(path) as db:
            db.install(paper_policy, paper_population)
        with pytest.raises(RuntimeError):
            with PrivacyDatabase.open(path) as db:
                db.repository.put_datum("Alice", "Weight", "60")
                raise RuntimeError("boom")
        with PrivacyDatabase.open(path) as db:
            assert db.repository.get_datum("Alice", "Weight") is None

    def test_schema_version_constant(self):
        assert SCHEMA_VERSION == 1


class TestHighLevelOperations:
    @pytest.fixture()
    def db(self, paper_policy, paper_population):
        database = PrivacyDatabase.create(":memory:")
        database.install(paper_policy, paper_population)
        yield database
        database.close()

    def test_engine_matches_in_memory_model(self, db, paper_engine):
        stored = db.engine().report()
        direct = paper_engine.report()
        assert stored.violation_probability == direct.violation_probability
        assert stored.default_probability == direct.default_probability
        assert stored.total_violations == direct.total_violations

    def test_certify(self, db):
        assert not db.certify(0.5).satisfied
        assert db.certify(0.7).satisfied

    def test_set_policy_records_audit_event(self, db):
        narrower = HousePolicy(
            [("Weight", PrivacyTuple("pr", 0, 0, 0))], name="narrow"
        )
        db.set_policy(narrower)
        events = list(db.audit_log.events())
        assert any(e.event == "policy-changed" for e in events)
        assert db.repository.load_policy().name == "narrow"

    def test_evict_defaulted_removes_ted(self, db):
        evicted = db.evict_defaulted()
        assert evicted == ("Ted",)
        report = db.engine().report()
        assert report.n_providers == 2
        assert report.n_defaulted == 0

    def test_evict_idempotent(self, db):
        db.evict_defaulted()
        assert db.evict_defaulted() == ()

    def test_install_transactionality(self, paper_policy, paper_population):
        db = PrivacyDatabase.create(":memory:")
        db.install(paper_policy, paper_population)
        with pytest.raises(StorageError):
            # Installing again must fail (duplicate providers) without
            # corrupting the store.
            db.install(paper_policy, paper_population)
        assert db.engine().report().n_providers == 3
        db.close()


SCENARIOS = {
    "crm": crm_scenario,
    "government": government_scenario,
    "healthcare": healthcare_scenario,
    "social_network": social_network_scenario,
}


class TestBatchEngineOperations:
    """``certify`` and ``evict_defaulted`` evaluate on the batch engine
    and agree with the reference engine over the same stored state."""

    @pytest.mark.parametrize("levels", [0, 1, 2])
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_match_the_reference_engine(self, name, levels):
        scenario = SCENARIOS[name](60, seed=42)
        policy = widen(
            scenario.policy, WideningStep.uniform(levels), scenario.taxonomy
        )
        with PrivacyDatabase.create(":memory:") as db:
            db.install(policy, scenario.population)
            # The store hands providers back sorted by id, so the
            # reference is the engine over the stored state.
            reference = db.engine()
            for alpha in (0.0, 0.3, 1.0):
                assert db.certify(alpha) == reference.certify(alpha)
            defaulted = reference.report().defaulted_ids()
            assert db.evict_defaulted() == tuple(str(pid) for pid in defaulted)

    def test_run_no_reference_evaluation(
        self, monkeypatch, paper_policy, paper_population
    ):
        def refuse(engine):
            raise AssertionError("the reference engine evaluated")

        monkeypatch.setattr(ViolationEngine, "_evaluate", refuse)
        with PrivacyDatabase.create(":memory:") as db:
            db.install(paper_policy, paper_population)
            certificate = db.certify(0.5)
            assert certificate.violated_providers == ("Bob", "Ted")
            assert not certificate.satisfied
            assert db.evict_defaulted() == ("Ted",)
