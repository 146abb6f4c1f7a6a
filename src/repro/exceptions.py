"""Exception hierarchy for the privacy-violation model.

Every error raised by :mod:`repro` derives from :class:`PrivacyModelError`,
so callers embedding the library can catch one base class.  Subclasses are
grouped by subsystem: model construction, taxonomy/domain handling, policy
documents, storage, and simulation.
"""

from __future__ import annotations

import sqlite3


class PrivacyModelError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ValidationError(PrivacyModelError, ValueError):
    """An argument or document failed semantic validation.

    Raised when values are structurally well-formed Python objects but
    violate a model constraint (for instance a negative sensitivity, an
    unknown dimension name, or a privacy level outside its domain).
    """


class DomainError(ValidationError):
    """A value does not belong to the ordered domain it was used with."""

    def __init__(self, domain_name: str, value: object) -> None:
        self.domain_name = domain_name
        self.value = value
        super().__init__(f"value {value!r} is not a level of domain {domain_name!r}")


class UnknownAttributeError(ValidationError):
    """A policy, preference, or datum referenced an attribute not in the schema."""

    def __init__(self, attribute: str) -> None:
        self.attribute = attribute
        super().__init__(f"unknown attribute {attribute!r}")


class UnknownPurposeError(ValidationError):
    """A privacy tuple referenced a purpose not registered with the taxonomy."""

    def __init__(self, purpose: str) -> None:
        self.purpose = purpose
        super().__init__(f"unknown purpose {purpose!r}")


class UnknownProviderError(PrivacyModelError, KeyError):
    """An operation referenced a data provider the model has never seen."""

    def __init__(self, provider_id: object) -> None:
        self.provider_id = provider_id
        super().__init__(f"unknown data provider {provider_id!r}")


class PolicyDocumentError(ValidationError):
    """A policy/preference document could not be parsed or serialized."""


class LintConfigurationError(ValidationError):
    """The static analyzer was configured inconsistently.

    Raised for unknown rule codes in ``--select``/``--ignore``, unknown
    severities, unknown output formats, and malformed lint options — not
    for problems *in* the analyzed documents, which are reported as
    diagnostics instead.
    """


class StorageError(PrivacyModelError):
    """Base class for errors raised by the sqlite-backed privacy store."""


class SchemaMismatchError(StorageError):
    """The on-disk database schema does not match the library's schema."""


class CorruptDatabaseError(StorageError, sqlite3.DatabaseError):
    """The database file failed sqlite's integrity verification.

    Derives from :class:`sqlite3.DatabaseError` as well so callers
    catching raw sqlite corruption keep working after the storage layer
    started classifying it.
    """


class AccessDeniedError(StorageError):
    """An access request was rejected by the enforcement gate.

    Carries the structured decision so callers (and the audit log) can
    explain exactly which preference tuples were exceeded.
    """

    def __init__(self, message: str, decision: object = None) -> None:
        self.decision = decision
        super().__init__(message)


class ResilienceError(PrivacyModelError):
    """Base class for errors raised by the resilience layer."""


class FaultConfigError(ResilienceError, ValueError):
    """A fault plan or fault spec was configured inconsistently."""


class ProcessKilled(ResilienceError):
    """A scripted fault simulated the process dying at an injection site.

    Raised (never silently swallowed) so crash-recovery tests can kill a
    run at an exact checkpoint boundary and then resume it.
    """

    def __init__(self, site: str) -> None:
        self.site = site
        super().__init__(f"simulated process kill at fault site {site!r}")


class JournalError(ResilienceError):
    """Base class for run-journal problems (missing, foreign, unreadable)."""


class JournalCorruptionError(JournalError):
    """A run journal failed checksum or structural verification.

    The journal is never trusted past the corruption point: resuming from
    a corrupt journal is refused outright rather than risking a silently
    wrong ledger or certificate.
    """


class JournalMismatchError(JournalError):
    """A run journal belongs to a different run than the one resuming.

    Raised when the journal's kind or input fingerprint does not match
    the inputs of the run asking to resume from it.
    """


class SimulationError(PrivacyModelError):
    """A simulation scenario was configured inconsistently."""


class GameError(PrivacyModelError):
    """A game-theoretic routine was configured inconsistently."""
