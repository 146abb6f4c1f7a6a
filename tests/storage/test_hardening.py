"""Storage hardening: pragmas, retries, integrity checks, atomic writes."""

from __future__ import annotations

import os
import sqlite3

import pytest

from repro.exceptions import CorruptDatabaseError, ProcessKilled, StorageError
from repro.resilience import FaultPlan, FaultSpec
from repro.storage import (
    PrivacyDatabase,
    atomic_write_bytes,
    atomic_write_text,
    connect,
    with_locked_retry,
)
from repro.storage.queries import LOCKED_RETRY_ATTEMPTS


def _locked() -> sqlite3.OperationalError:
    return sqlite3.OperationalError("database is locked")


class TestConnectionPragmas:
    def test_file_database_gets_wal_and_busy_timeout(self, tmp_path):
        connection = connect(str(tmp_path / "db.sqlite"))
        try:
            (mode,) = connection.execute("PRAGMA journal_mode").fetchone()
            assert mode == "wal"
            (timeout,) = connection.execute("PRAGMA busy_timeout").fetchone()
            assert timeout == 5000
            (fk,) = connection.execute("PRAGMA foreign_keys").fetchone()
            assert fk == 1
        finally:
            connection.close()

    def test_memory_database_skips_wal(self):
        connection = connect(":memory:")
        try:
            (mode,) = connection.execute("PRAGMA journal_mode").fetchone()
            assert mode == "memory"
        finally:
            connection.close()

    def test_busy_timeout_configurable(self, tmp_path):
        connection = connect(str(tmp_path / "db.sqlite"), busy_timeout_ms=123)
        try:
            (timeout,) = connection.execute("PRAGMA busy_timeout").fetchone()
            assert timeout == 123
        finally:
            connection.close()


class TestLockedRetry:
    def test_succeeds_after_transient_locks(self):
        failures = [_locked(), _locked()]
        delays = []

        def operation():
            if failures:
                raise failures.pop(0)
            return "done"

        assert with_locked_retry(operation, sleep=delays.append) == "done"
        assert delays == [0.05, 0.1]  # exponential backoff

    def test_budget_exhaustion_raises_the_real_error(self):
        def operation():
            raise _locked()

        calls = []
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            with_locked_retry(operation, attempts=3, sleep=calls.append)
        assert len(calls) == 2  # no sleep after the final attempt

    def test_non_locked_errors_never_retried(self):
        attempts = []

        def operation():
            attempts.append(1)
            raise sqlite3.OperationalError("no such table: nope")

        with pytest.raises(sqlite3.OperationalError, match="no such table"):
            with_locked_retry(operation, sleep=lambda _: None)
        assert len(attempts) == 1

    def test_invalid_attempts_rejected(self):
        with pytest.raises(ValueError):
            with_locked_retry(lambda: None, attempts=0)

    def test_connect_retries_through_held_lock(self, tmp_path):
        # Lock held for the first three connection attempts, released
        # before the budget runs out: the caller never sees the error.
        plan = FaultPlan(
            [FaultSpec(site="db.connect", kind="locked", at=0, count=3)]
        )
        with plan.activate():
            connection = connect(
                str(tmp_path / "db.sqlite"), sleep=lambda _: None
            )
            connection.close()
        assert plan.visits("db.connect") == 4

    def test_connect_gives_up_on_persistent_lock(self, tmp_path):
        plan = FaultPlan(
            [FaultSpec(site="db.connect", kind="locked", at=0, count=999)]
        )
        with plan.activate():
            with pytest.raises(sqlite3.OperationalError, match="locked"):
                connect(str(tmp_path / "db.sqlite"), sleep=lambda _: None)
        assert plan.visits("db.connect") == LOCKED_RETRY_ATTEMPTS


class TestIntegrityCheck:
    def test_garbage_file_raises_corrupt_database_error(self, tmp_path):
        path = str(tmp_path / "garbage.sqlite")
        with open(path, "wb") as handle:
            handle.write(b"x" * 4096)
        with pytest.raises(CorruptDatabaseError):
            PrivacyDatabase.open(path)

    def test_corrupt_error_is_both_storage_and_sqlite_error(self):
        # Callers written against either hierarchy keep working.
        assert issubclass(CorruptDatabaseError, StorageError)
        assert issubclass(CorruptDatabaseError, sqlite3.DatabaseError)

    def test_healthy_database_opens(self, tmp_path, paper_policy, paper_population):
        path = str(tmp_path / "ok.sqlite")
        with PrivacyDatabase.create(path) as db:
            db.install(paper_policy, paper_population)
        with PrivacyDatabase.open(path) as db:
            assert db.engine().report().n_providers == 3


class TestExitDoesNotMaskErrors:
    def test_original_exception_survives_rollback_failure(
        self, tmp_path, paper_policy, paper_population
    ):
        path = str(tmp_path / "db.sqlite")
        with PrivacyDatabase.create(path) as db:
            db.install(paper_policy, paper_population)
        with pytest.raises(RuntimeError, match="the real problem"):
            with PrivacyDatabase.open(path) as db:
                # Sabotage the handle so __exit__'s rollback AND close
                # both raise; the context manager must still re-raise
                # the original error, not sqlite's.
                db._connection.close()
                raise RuntimeError("the real problem")

    def test_clean_exit_still_commits(self, tmp_path, paper_policy, paper_population):
        path = str(tmp_path / "db.sqlite")
        with PrivacyDatabase.create(path) as db:
            db.install(paper_policy, paper_population)
        with PrivacyDatabase.open(path) as db:
            assert len(db.repository.load_population()) == 3


class TestAtomicWrites:
    def test_writes_complete_document(self, tmp_path):
        path = str(tmp_path / "out.json")
        atomic_write_text(path, '{"ok": true}')
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == '{"ok": true}'

    def test_overwrites_atomically(self, tmp_path):
        path = str(tmp_path / "out.json")
        atomic_write_text(path, "old")
        atomic_write_text(path, "new")
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == "new"

    def test_missing_directory_error_names_the_given_path(self, tmp_path):
        path = str(tmp_path / "missing" / "out.json")
        with pytest.raises(FileNotFoundError) as excinfo:
            atomic_write_bytes(path, b"never written")
        assert excinfo.value.filename == path
        assert os.listdir(tmp_path) == []

    def test_disk_full_leaves_no_file_and_no_temp(self, tmp_path):
        path = str(tmp_path / "out.json")
        plan = FaultPlan(
            [FaultSpec(site="export.write", kind="disk_full", at=0)]
        )
        with plan.activate():
            with pytest.raises(sqlite3.OperationalError, match="disk is full"):
                atomic_write_bytes(path, b"doomed")
        assert os.listdir(tmp_path) == []

    def test_kill_mid_export_leaves_no_partial_file(self, tmp_path):
        target = str(tmp_path / "out.json")
        plan = FaultPlan([FaultSpec(site="export.write", kind="kill", at=0)])
        with plan.activate():
            with pytest.raises(ProcessKilled):
                atomic_write_bytes(target, b"doomed")
        assert os.listdir(tmp_path) == []

    def test_failed_export_preserves_previous_version(self, tmp_path):
        path = str(tmp_path / "out.json")
        atomic_write_text(path, "version 1")
        plan = FaultPlan(
            [FaultSpec(site="export.write", kind="disk_full", at=0)]
        )
        with plan.activate():
            with pytest.raises(sqlite3.OperationalError):
                atomic_write_text(path, "version 2")
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == "version 1"
