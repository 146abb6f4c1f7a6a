"""Baselines: adopt the linter on a brownfield deployment.

A baseline file records the fingerprints of currently-known diagnostics.
``repro lint --baseline known.json`` then suppresses exactly those
findings, so the severity gate (and CI) fails only on *new* findings —
the standard ratchet for introducing a linter to documents that already
carry violations nobody is fixing today.

Fingerprints hash the diagnostic's full dict form (code, severity,
message, location, payload), so a finding that moves, changes message,
or changes payload counts as new.  Baselines are plain JSON::

    {"version": 1, "fingerprints": ["<sha256>", ...]}

:func:`load_baseline` also accepts a ``repro lint --format json`` report
directly, so ``repro lint --format json > known.json`` and
``repro lint --write-baseline known.json`` produce interchangeable
inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Iterable, Mapping

from ..exceptions import LintConfigurationError
from ..storage import atomic_write_text
from .diagnostics import Diagnostic
from .report import LintReport

#: Baseline file format version; bump on incompatible layout changes.
BASELINE_VERSION = 1


def fingerprint(obj: object) -> str:
    """SHA-256 of *obj*'s canonical JSON form.

    Canonical means key-sorted with minimal separators, so two mappings
    with the same content fingerprint identically regardless of
    insertion order.  Non-JSON values fall back to ``str``.  Recorded
    baselines hold these digests, so the encoding must never change.
    """
    payload = json.dumps(
        obj, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def diagnostic_fingerprint(diagnostic: Diagnostic) -> str:
    """A stable identity for one finding (SHA-256 of its dict form)."""
    return fingerprint(diagnostic.as_dict())


def load_baseline(path: str | os.PathLike) -> frozenset[str]:
    """The suppressed fingerprints recorded in a baseline file.

    Accepts either the native baseline format (``{"version": 1,
    "fingerprints": [...]}``) or a full JSON lint report (its
    ``diagnostics`` are fingerprinted on the fly).  Anything else is a
    configuration error — a malformed baseline silently suppressing
    nothing (or everything) would defeat the gate it exists to serve.
    """
    path = os.fspath(path)
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as error:
        raise LintConfigurationError(
            f"cannot read baseline {path!r}: {error}"
        ) from error
    except ValueError as error:
        raise LintConfigurationError(
            f"baseline {path!r} is not valid JSON: {error}"
        ) from error
    if isinstance(data, Mapping) and "fingerprints" in data:
        fingerprints = data["fingerprints"]
        if not isinstance(fingerprints, list) or not all(
            isinstance(fp, str) for fp in fingerprints
        ):
            raise LintConfigurationError(
                f"baseline {path!r}: 'fingerprints' must be a list of strings"
            )
        return frozenset(fingerprints)
    if isinstance(data, Mapping) and "diagnostics" in data:
        try:
            return frozenset(
                diagnostic_fingerprint(Diagnostic.from_dict(raw))
                for raw in data["diagnostics"]
            )
        except (KeyError, TypeError, AttributeError) as error:
            raise LintConfigurationError(
                f"baseline {path!r}: malformed diagnostics: {error}"
            ) from error
    raise LintConfigurationError(
        f"baseline {path!r}: expected a 'fingerprints' list or a JSON lint "
        f"report with 'diagnostics'"
    )


def write_baseline(
    path: str | os.PathLike, report: LintReport | Iterable[Diagnostic]
) -> int:
    """Record *report*'s findings as the new baseline (atomic write).

    Returns the number of fingerprints written.  Fingerprints are
    sorted and deduplicated, so the file is byte-stable for a given
    finding set.
    """
    fingerprints = sorted(
        {diagnostic_fingerprint(diagnostic) for diagnostic in report}
    )
    atomic_write_text(
        os.fspath(path),
        json.dumps(
            {"version": BASELINE_VERSION, "fingerprints": fingerprints},
            indent=2,
            sort_keys=True,
        )
        + "\n",
    )
    return len(fingerprints)


def apply_baseline(
    report: LintReport, fingerprints: frozenset[str] | Iterable[str]
) -> tuple[LintReport, int]:
    """Drop baselined findings from *report*.

    Returns the filtered report (original diagnostic order preserved)
    and the number of findings suppressed.  Exit-code gating on the
    filtered report is what makes the baseline a ratchet: old findings
    stay visible in the baseline file, new ones fail the gate.
    """
    suppressed = frozenset(fingerprints)
    kept = tuple(
        diagnostic
        for diagnostic in report.diagnostics
        if diagnostic_fingerprint(diagnostic) not in suppressed
    )
    return LintReport(kept), len(report.diagnostics) - len(kept)
