"""The purpose-aware access gate.

Every read of stored private data is phrased as an :class:`AccessRequest`:
*which attribute*, *for which purpose*, and at what visibility /
granularity / retention the caller intends to use the result.  The gate
compares the request against the stored preferences of every provider
whose datum would be touched — the same ``diff``/``comp`` arithmetic as
the offline model — and produces an :class:`AccessDecision`.

Two modes, matching the paper's framing that quantification and
transparency matter even when blocking is impossible:

* ``EnforcementMode.ENFORCE`` — violating requests raise
  :class:`~repro.exceptions.AccessDeniedError` and nothing is returned;
* ``EnforcementMode.AUDIT`` — violating requests succeed but the
  violation (with its full findings) is written to the audit log, making
  the house's practice-vs-policy gap measurable after the fact.

Either way every decision is logged, so ``P(W)`` over *actual accesses*
can be estimated from the log alone.
"""

from __future__ import annotations

import enum
import json
import sqlite3
from dataclasses import dataclass
from typing import Hashable

from collections.abc import Mapping

from ..core.dimensions import Dimension
from ..core.tuples import PrivacyTuple
from ..core.violation import exceeded_dimensions
from ..exceptions import AccessDeniedError, ValidationError
from .granularity import ValueDegrader
from .queries import tuple_from_row
from .repository import Repository


class EnforcementMode(enum.Enum):
    """What the gate does when a request violates preferences."""

    ENFORCE = "enforce"
    AUDIT = "audit"


@dataclass(frozen=True, slots=True)
class AccessRequest:
    """One intended use of stored data.

    ``provider_id=None`` means "all providers' data for this attribute"
    (the common analytical query); a concrete id scopes the request to one
    provider's datum.
    """

    attribute: str
    tuple: PrivacyTuple
    provider_id: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.tuple, PrivacyTuple):
            raise ValidationError(
                f"request tuple must be a PrivacyTuple, got "
                f"{type(self.tuple).__name__}"
            )

    @property
    def purpose(self) -> str:
        """The purpose the data would be used for."""
        return self.tuple.purpose


@dataclass(frozen=True, slots=True)
class RequestFinding:
    """One provider/dimension exceedance caused by an access request."""

    provider_id: Hashable
    dimension: Dimension
    preference_value: int
    requested_value: int

    @property
    def amount(self) -> int:
        """The rank exceedance."""
        return self.requested_value - self.preference_value


@dataclass(frozen=True, slots=True)
class AccessDecision:
    """The gate's verdict on one request."""

    request: AccessRequest
    allowed: bool
    mode: EnforcementMode
    violated_providers: tuple[Hashable, ...]
    findings: tuple[RequestFinding, ...]
    values: dict[str, str | None] | None

    @property
    def violates(self) -> bool:
        """Whether the request exceeded at least one provider's preferences."""
        return bool(self.findings)


class AccessGate:
    """Evaluate and log access requests against stored preferences.

    Section 5's implicit-zero rule applies: a provider who supplied the
    attribute but never mentioned the request's purpose is treated as
    preferring ``(0, 0, 0)``, so any such access violates them.

    Parameters
    ----------
    connection:
        A live connection to a privacy database.
    mode:
        Enforcement mode (see module docstring).
    degraders:
        Optional per-attribute :class:`~repro.storage.granularity.ValueDegrader`
        records.  When present, returned values are rendered at the
        request's granularity rank (ranges, existence markers, or the raw
        value) instead of always raw.
    """

    def __init__(
        self,
        connection: sqlite3.Connection,
        *,
        mode: EnforcementMode = EnforcementMode.ENFORCE,
        degraders: Mapping[str, "ValueDegrader"] | None = None,
    ) -> None:
        if not isinstance(mode, EnforcementMode):
            raise ValidationError(f"mode must be an EnforcementMode, got {mode!r}")
        self._connection = connection
        self._repository = Repository(connection)
        self._mode = mode
        self._degraders = dict(degraders or {})

    @property
    def mode(self) -> EnforcementMode:
        """The gate's enforcement mode."""
        return self._mode

    def request(self, request: AccessRequest) -> AccessDecision:
        """Evaluate *request*, log the decision, and return it.

        Raises
        ------
        AccessDeniedError
            In ``ENFORCE`` mode, when the request violates any touched
            provider's preferences.  The raised error carries the decision.
        """
        findings = self._evaluate(request)
        violated = tuple(
            sorted({finding.provider_id for finding in findings}, key=repr)
        )
        allowed = not findings or self._mode is EnforcementMode.AUDIT
        values = self._fetch_values(request) if allowed else None
        decision = AccessDecision(
            request=request,
            allowed=allowed,
            mode=self._mode,
            violated_providers=violated,
            findings=tuple(findings),
            values=values,
        )
        self._log(decision)
        if not allowed:
            raise AccessDeniedError(
                f"access to {request.attribute!r} for purpose "
                f"{request.purpose!r} violates {len(violated)} provider(s)",
                decision=decision,
            )
        return decision

    # -- internals --------------------------------------------------------

    def _touched_providers(self, request: AccessRequest) -> list[str]:
        """Providers whose stored datum the request would read."""
        if request.provider_id is not None:
            row = self._connection.execute(
                "SELECT 1 FROM data WHERE provider_id = ? AND attribute = ?",
                (request.provider_id, request.attribute),
            ).fetchone()
            return [request.provider_id] if row is not None else []
        rows = self._connection.execute(
            "SELECT provider_id FROM data WHERE attribute = ? "
            "ORDER BY provider_id",
            (request.attribute,),
        )
        return [row["provider_id"] for row in rows]

    def _evaluate(self, request: AccessRequest) -> list[RequestFinding]:
        """All per-provider exceedances the request would cause."""
        findings: list[RequestFinding] = []
        for provider_id in self._touched_providers(request):
            rows = self._connection.execute(
                "SELECT purpose, visibility, granularity, retention "
                "FROM preferences WHERE provider_id = ? AND attribute = ? "
                "ORDER BY id",
                (provider_id, request.attribute),
            ).fetchall()
            matching = [
                tuple_from_row(row)
                for row in rows
                if row["purpose"] == request.purpose
            ]
            if not matching:
                matching = [PrivacyTuple.zero(request.purpose)]
            for preference in matching:
                for dimension in exceeded_dimensions(preference, request.tuple):
                    findings.append(
                        RequestFinding(
                            provider_id=provider_id,
                            dimension=dimension,
                            preference_value=preference.rank(dimension),
                            requested_value=request.tuple.rank(dimension),
                        )
                    )
        return findings

    def _fetch_values(self, request: AccessRequest) -> dict[str, str | None]:
        """The values an allowed request reads, at the granted granularity."""
        if request.provider_id is not None:
            values = {
                request.provider_id: self._repository.get_datum(
                    request.provider_id, request.attribute
                )
            }
        else:
            values = self._repository.data_for_attribute(request.attribute)
        degrader = self._degraders.get(request.attribute)
        if degrader is None:
            return values
        rank = request.tuple.granularity
        return {
            provider_id: degrader.degrade(value, rank)
            for provider_id, value in values.items()
        }

    def _log(self, decision: AccessDecision) -> None:
        """Append the decision to the audit log."""
        request = decision.request
        if decision.allowed:
            event = "violation-logged" if decision.violates else "access-granted"
        else:
            event = "access-denied"
        detail = json.dumps(
            {
                "mode": decision.mode.value,
                "violated_providers": [str(p) for p in decision.violated_providers],
                "findings": [
                    {
                        "provider": str(finding.provider_id),
                        "dimension": finding.dimension.value,
                        "preference": finding.preference_value,
                        "requested": finding.requested_value,
                    }
                    for finding in decision.findings
                ],
            },
            sort_keys=True,
        )
        self._connection.execute(
            "INSERT INTO audit_log (event, provider_id, attribute, purpose, "
            "visibility, granularity, retention, detail) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            (
                event,
                request.provider_id,
                request.attribute,
                request.purpose,
                request.tuple.visibility,
                request.tuple.granularity,
                request.tuple.retention,
                detail,
            ),
        )
        # The gate owns this write; commit so audit entries survive even if
        # the caller never commits their own transaction.
        self._connection.commit()
