"""The :class:`PrivacyDatabase`: top-level handle over the sqlite store.

One object owning the connection lifecycle and offering the high-level
operations a deployment needs:

* create a fresh privacy database (in memory or on disk) or open an
  existing one (with a schema-version check);
* store / load whole model objects (policy, population);
* store raw data values alongside the privacy metadata;
* build a :class:`~repro.core.engine.ViolationEngine` from the *stored*
  state — the bridge proving the sqlite store and the in-memory model
  agree (tested property: engine-from-store equals engine-from-objects);
* certify and evict the stored state on the
  :class:`~repro.perf.batch.BatchViolationEngine`, the engine every
  published certificate comes from;
* hand out an :class:`~repro.storage.enforcement.AccessGate` and the
  :class:`~repro.storage.audit.AuditLog`.
"""

from __future__ import annotations

import errno
import os
import sqlite3
from types import TracebackType

from ..core.engine import ViolationEngine
from ..core.policy import HousePolicy
from ..core.population import Population
from ..core.ppdb import PPDBCertificate
from ..exceptions import CorruptDatabaseError, SchemaMismatchError, StorageError
from ..obs import active_observer
from ..perf import BatchViolationEngine
from .audit import AuditLog
from .enforcement import AccessGate, EnforcementMode
from .queries import connect
from .repository import Repository
from .schema import DDL_STATEMENTS, EXPECTED_TABLES, SCHEMA_VERSION


class PrivacyDatabase:
    """A privacy-preserving database over one sqlite connection.

    Use the classmethods to obtain instances::

        db = PrivacyDatabase.create(":memory:")
        db = PrivacyDatabase.create("clinic.db")
        db = PrivacyDatabase.open("clinic.db")

    The object is a context manager; leaving the ``with`` block commits
    (on success) or rolls back (on error) and closes the connection.
    """

    def __init__(self, connection: sqlite3.Connection) -> None:
        self._connection = connection
        self._repository = Repository(connection)
        self._audit = AuditLog(connection)

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def create(cls, path: str = ":memory:") -> "PrivacyDatabase":
        """Create a fresh database at *path* (``":memory:"`` for in-memory).

        Raises
        ------
        StorageError
            If *path* already contains our tables (refuse to clobber).
        """
        connection = connect(path)
        existing = {
            row["name"]
            for row in connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        if existing & EXPECTED_TABLES:
            connection.close()
            raise StorageError(
                f"{path!r} already contains a privacy database; "
                f"use PrivacyDatabase.open()"
            )
        for statement in DDL_STATEMENTS:
            connection.execute(statement)
        connection.execute(
            "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
            (str(SCHEMA_VERSION),),
        )
        connection.commit()
        return cls(connection)

    @classmethod
    def open(cls, path: str) -> "PrivacyDatabase":
        """Open an existing database, verifying integrity and schema.

        Runs ``PRAGMA integrity_check`` before trusting the file, then
        verifies the expected tables and the stored schema version.

        Raises
        ------
        FileNotFoundError
            If *path* is not an existing file.  Nothing is created:
            connecting would make sqlite create an empty database there.
        CorruptDatabaseError
            If the file is not a readable sqlite database or fails the
            integrity check.
        SchemaMismatchError
            If the file is a healthy sqlite database but not one of ours
            (missing tables or wrong schema version).
        """
        if not os.path.isfile(path):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        try:
            connection = connect(path)
        except sqlite3.DatabaseError as error:
            # The connection pragmas already tripped over the file — it
            # is not sqlite at all (WAL setup reads the header).
            raise CorruptDatabaseError(
                f"{path!r} is not a readable sqlite database: {error}"
            ) from error
        obs = active_observer()
        if obs is not None:
            obs.inc("storage.integrity_checks")
        try:
            verdicts = [
                row[0] for row in connection.execute("PRAGMA integrity_check")
            ]
        except sqlite3.DatabaseError as error:
            connection.close()
            if obs is not None:
                obs.inc("storage.integrity_failures")
            raise CorruptDatabaseError(
                f"{path!r} is not a readable sqlite database: {error}"
            ) from error
        if verdicts != ["ok"]:
            connection.close()
            if obs is not None:
                obs.inc("storage.integrity_failures")
            raise CorruptDatabaseError(
                f"{path!r} failed integrity check: {'; '.join(verdicts[:3])}"
            )
        tables = {
            row["name"]
            for row in connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        missing = EXPECTED_TABLES - tables
        if missing:
            connection.close()
            raise SchemaMismatchError(
                f"{path!r} is not a privacy database (missing tables: "
                f"{sorted(missing)})"
            )
        row = connection.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        version = None if row is None else row["value"]
        if version != str(SCHEMA_VERSION):
            connection.close()
            raise SchemaMismatchError(
                f"{path!r} has schema version {version!r}, "
                f"expected {SCHEMA_VERSION!r}"
            )
        return cls(connection)

    def close(self) -> None:
        """Close the underlying connection."""
        self._connection.close()

    def __enter__(self) -> "PrivacyDatabase":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        traceback: TracebackType | None,
    ) -> None:
        try:
            if exc_type is None:
                self._connection.commit()
            else:
                # A rollback failure (already-closed or broken connection)
                # must not mask the exception already unwinding the block.
                try:
                    self._connection.rollback()
                except sqlite3.Error:
                    pass
        finally:
            try:
                self._connection.close()
            except sqlite3.Error:
                pass

    # -- accessors ----------------------------------------------------------

    @property
    def repository(self) -> Repository:
        """Row-level CRUD."""
        return self._repository

    @property
    def audit_log(self) -> AuditLog:
        """The append-only audit log."""
        return self._audit

    def gate(
        self,
        *,
        mode: EnforcementMode = EnforcementMode.ENFORCE,
        degraders=None,
    ) -> AccessGate:
        """An access gate over this database.

        *degraders* optionally maps attribute names to
        :class:`~repro.storage.granularity.ValueDegrader` records so
        returned values are coarsened to each request's granularity.
        """
        return AccessGate(self._connection, mode=mode, degraders=degraders)

    # -- high-level operations ----------------------------------------------

    def install(
        self, policy: HousePolicy, population: Population
    ) -> None:
        """Store a policy and a population in one transaction."""
        try:
            with self._connection:
                self._repository.store_population(population)
                # A policy may legitimately cover attributes nobody has
                # supplied yet; register them so the policy can be stored.
                for entry in policy:
                    self._repository.ensure_attribute(entry.attribute)
                self._repository.replace_policy(policy)
        except sqlite3.Error as error:
            raise StorageError(f"install failed: {error}") from error

    def set_policy(self, policy: HousePolicy) -> None:
        """Replace the stored policy, recording the change in the audit log."""
        old = self._repository.load_policy()
        with self._connection:
            self._repository.replace_policy(policy)
        self._audit.record_policy_change(
            f"policy {old.name!r} ({len(old)} entries) -> "
            f"{policy.name!r} ({len(policy)} entries)"
        )

    def engine(self) -> ViolationEngine:
        """A :class:`ViolationEngine` over the *stored* policy and population."""
        return ViolationEngine(
            self._repository.load_policy(), self._repository.load_population()
        )

    def certify(self, alpha: float) -> PPDBCertificate:
        """Definition 3's certificate over the stored state."""
        return BatchViolationEngine(self._repository.load_population()).certify(
            self._repository.load_policy(), alpha
        )

    def evict_defaulted(self) -> tuple[str, ...]:
        """Remove every provider the stored state says has defaulted.

        The storage-level realisation of Definition 4: defaulted providers
        leave and their data stops being collected.  Returns the evicted
        ids (audit-logged as a policy-changed event for traceability).
        """
        report = BatchViolationEngine(
            self._repository.load_population()
        ).evaluate(self._repository.load_policy())
        defaulted = tuple(str(pid) for pid in report.defaulted_ids())
        with self._connection:
            for provider_id in defaulted:
                self._repository.remove_provider(provider_id)
        if defaulted:
            self._audit.record_policy_change(
                f"evicted {len(defaulted)} defaulted providers"
            )
        return defaulted
