"""Stable diagnostic codes for runtime resilience events.

The static analyzer owns ``PVL0xx``–``PVL2xx`` (see
:mod:`repro.lint.registry`); this module extends the same code space with
the *runtime* families, reusing the linter's
:class:`~repro.lint.diagnostics.Diagnostic` /
:class:`~repro.lint.diagnostics.Severity` machinery so CI annotations and
audit pipelines consume one uniform stream:

* ``PVL3xx`` — engine-guardrail events (divergence, non-finite
  severities, degraded-mode notices);
* ``PVL9xx`` — operational CLI failures (missing files, malformed
  documents, storage and journal errors), printed as one-line coded
  errors with exit code 2.
"""

from __future__ import annotations

from collections.abc import Mapping

from ..lint.diagnostics import Diagnostic, Severity, SourceLocation

#: The batch engine's sampled output diverged from the reference oracle.
GUARDRAIL_DIVERGENCE = "PVL301"
#: The batch engine produced a non-finite severity or aggregate.
GUARDRAIL_NONFINITE = "PVL302"
#: The guardrail degraded evaluation to the reference engine.
GUARDRAIL_DEGRADED = "PVL303"

#: An input file is missing or unreadable.
CLI_IO = "PVL901"
#: An input file is not valid JSON.
CLI_JSON = "PVL902"
#: A document parsed but failed model validation.
CLI_DOCUMENT = "PVL903"
#: The sqlite privacy store failed or is corrupt.
CLI_STORAGE = "PVL904"
#: A run journal is missing, corrupt, or belongs to a different run.
CLI_JOURNAL = "PVL905"
#: A run was interrupted mid-flight (resumable via its journal).
CLI_INTERRUPTED = "PVL906"

#: One-line descriptions, for docs and ``repro`` error output tooling.
RUNTIME_CODES: dict[str, str] = {
    GUARDRAIL_DIVERGENCE: "batch engine diverged from the reference oracle",
    GUARDRAIL_NONFINITE: "batch engine produced a non-finite severity",
    GUARDRAIL_DEGRADED: "evaluation degraded to the reference engine",
    CLI_IO: "input file missing or unreadable",
    CLI_JSON: "input file is not valid JSON",
    CLI_DOCUMENT: "document failed model validation",
    CLI_STORAGE: "privacy store failure",
    CLI_JOURNAL: "run journal missing, corrupt, or mismatched",
    CLI_INTERRUPTED: "run interrupted; resume from its journal",
}


def coded_error(code: str, message: str) -> str:
    """Render the one-line coded error the CLI prints on stderr.

    Embedded newlines are flattened so the line stays a single line —
    grep-able, CI-annotation-safe, and never a traceback.
    """
    flattened = " ".join(str(message).split())
    return f"error[{code}]: {flattened}"


def guardrail_diagnostic(
    code: str,
    message: str,
    *,
    policy_name: str,
    payload: Mapping[str, object] = (),
) -> Diagnostic:
    """A guardrail finding in the linter's diagnostic shape.

    ``PVL301``/``PVL302`` are :attr:`~repro.lint.diagnostics.Severity.ERROR`
    (the fast path produced a wrong or meaningless number);
    ``PVL303`` is a :attr:`~repro.lint.diagnostics.Severity.WARNING`
    (the run continues, correctly, on the slow path).
    """
    severity = Severity.WARNING if code == GUARDRAIL_DEGRADED else Severity.ERROR
    return Diagnostic(
        code=code,
        severity=severity,
        message=message,
        location=SourceLocation(document="policy", name=policy_name),
        payload=dict(payload),
    )
