"""Structured diagnostics: the linter's unit of output.

A :class:`Diagnostic` is one finding with a stable code (``PVL001``,
``PVL101``, ...), a :class:`Severity`, a :class:`SourceLocation` pointing
into the offending document, and a machine-readable ``payload``.  The
human-readable ``message`` never carries information absent from the
payload, so downstream tooling (CI annotations, SARIF uploads, audit
pipelines) can consume findings without string parsing.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from ..exceptions import LintConfigurationError


class Severity(enum.Enum):
    """How seriously a diagnostic should be taken.

    ``ERROR`` marks findings that make the documents meaningless or
    guarantee a violation; ``WARNING`` marks findings that are almost
    certainly mistakes but do not break the model; ``INFO`` marks
    advisory observations.  Severities are totally ordered
    (``INFO < WARNING < ERROR``) so reports can be gated on a floor.
    """

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        """The severity's position in the ``INFO < WARNING < ERROR`` order."""
        return _SEVERITY_RANKS[self]

    def __lt__(self, other: "Severity") -> bool:
        if not isinstance(other, Severity):
            return NotImplemented
        return self.rank < other.rank

    def __le__(self, other: "Severity") -> bool:
        if not isinstance(other, Severity):
            return NotImplemented
        return self.rank <= other.rank

    def __gt__(self, other: "Severity") -> bool:
        if not isinstance(other, Severity):
            return NotImplemented
        return self.rank > other.rank

    def __ge__(self, other: "Severity") -> bool:
        if not isinstance(other, Severity):
            return NotImplemented
        return self.rank >= other.rank

    @classmethod
    def from_name(cls, name: str) -> "Severity":
        """Resolve ``"error"`` / ``"warning"`` / ``"info"`` (case-insensitive)."""
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise LintConfigurationError(
                f"unknown severity {name!r}; expected one of "
                f"{', '.join(s.value for s in cls)}"
            ) from None


_SEVERITY_RANKS = {Severity.INFO: 0, Severity.WARNING: 1, Severity.ERROR: 2}

#: The document kinds a location may point into, in report order.
DOCUMENT_KINDS = ("taxonomy", "policy", "population", "candidate")


@dataclass(frozen=True, slots=True)
class SourceLocation:
    """Where in which document a diagnostic points.

    ``document`` is one of :data:`DOCUMENT_KINDS`; ``name`` is the policy
    name or provider id (when applicable); ``index`` is the rule / entry
    index within the document; ``field`` names the offending field
    (``"purpose"``, ``"granularity"``, ...).
    """

    document: str
    name: str | None = None
    index: int | None = None
    field: str | None = None

    def __post_init__(self) -> None:
        if self.document not in DOCUMENT_KINDS:
            raise LintConfigurationError(
                f"unknown document kind {self.document!r}; expected one of "
                f"{', '.join(DOCUMENT_KINDS)}"
            )

    def describe(self) -> str:
        """A human-readable prefix for text output.

        Matches the legacy validator's context strings for policy and
        preference documents (``policy 'x' rule 0``, ``preferences of
        'alice' entry 1``) so the back-compat wrappers reproduce their
        historical output exactly.
        """
        if self.document == "policy":
            base = f"policy {self.name!r}" if self.name is not None else "policy"
            return f"{base} rule {self.index}" if self.index is not None else base
        if self.document == "candidate":
            base = (
                f"candidate {self.name!r}" if self.name is not None else "candidate"
            )
            return f"{base} rule {self.index}" if self.index is not None else base
        if self.document == "population":
            if self.name is None:
                return "population"
            base = f"preferences of {self.name!r}"
            return f"{base} entry {self.index}" if self.index is not None else base
        return "taxonomy"

    def as_dict(self) -> dict[str, str | int | None]:
        """The location as a plain JSON-safe dict."""
        return {
            "document": self.document,
            "name": self.name,
            "index": self.index,
            "field": self.field,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SourceLocation":
        """The inverse of :meth:`as_dict` (baseline reload)."""
        return cls(
            document=data["document"],
            name=data.get("name"),
            index=data.get("index"),
            field=data.get("field"),
        )


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One linter finding: code + severity + location + payload.

    ``payload`` carries the machine-readable facts (witness provider ids,
    exceedance amounts, break-even utilities, ...); it is frozen into a
    read-only mapping at construction.
    """

    code: str
    severity: Severity
    message: str
    location: SourceLocation
    payload: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "payload", MappingProxyType(dict(self.payload)))

    def __str__(self) -> str:
        return (
            f"{self.location.describe()}: {self.severity.value}"
            f"[{self.code}]: {self.message}"
        )

    def as_dict(self) -> dict[str, object]:
        """The diagnostic as a plain JSON-safe dict."""
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "location": self.location.as_dict(),
            "payload": dict(self.payload),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Diagnostic":
        """The inverse of :meth:`as_dict`, for baselines read from a JSON
        lint report.  Payload tuples come back as lists, which encode,
        and so fingerprint, identically.
        """
        return cls(
            code=data["code"],
            severity=Severity.from_name(data["severity"]),
            message=data["message"],
            location=SourceLocation.from_dict(data["location"]),
            payload=data.get("payload", {}),
        )


#: Canonical ordering of tuple-spec fields inside one rule/entry.  Used to
#: sort diagnostics for one document into the order the legacy validator
#: reported them: purpose first, then the ordered dimensions, then
#: attribute-level findings.
FIELD_ORDER = {
    "purpose": 0,
    "visibility": 1,
    "granularity": 2,
    "retention": 3,
    "attribute": 4,
}


def sort_key(diagnostic: Diagnostic) -> tuple:
    """Deterministic report order: document, position, field, code."""
    location = diagnostic.location
    return (
        DOCUMENT_KINDS.index(location.document),
        str(location.name) if location.name is not None else "",
        location.index if location.index is not None else -1,
        FIELD_ORDER.get(location.field or "", 9),
        diagnostic.code,
    )
