"""Resilience layer: fault injection, journaled runs, engine guardrails.

A production alpha-PPDB service must stay trustworthy under operational
failure, not just on the happy path: a locked sqlite file, a crash
between sweep steps, or a NaN sneaking into the batch engine's arrays
must never turn into a silently wrong certificate.  This package holds
the machinery that makes those failure modes testable and survivable:

* :mod:`repro.resilience.faults` — a deterministic, seed-driven
  fault-injection harness (:class:`FaultPlan` / :class:`FaultProxy`)
  that interposes on sqlite connections and the batch engine to inject
  locked-database errors, disk-full errors, simulated process kills,
  corrupted bytes, and NaN-poisoned arrays at scripted points;
* :mod:`repro.resilience.journal` — :class:`RunJournal`, a
  sqlite-backed, checksum-chained checkpoint store so long runs resume
  bit-for-bit identical to an uninterrupted run;
* :mod:`repro.resilience.resume` — what pins a journal to its run's
  inputs (:func:`population_fingerprint`, :func:`journal_fingerprint`)
  and the two hooks through which the Section 9 widening sweep, the
  multi-round dynamics and the Section 10 history replay checkpoint one
  journal step per unit of work when given a ``journal_path``;
* :mod:`repro.resilience.guardrail` — :class:`GuardedBatchEngine`, which
  samples the vectorized engine's outputs against the reference
  :class:`~repro.core.engine.ViolationEngine` oracle at runtime and
  degrades gracefully to the oracle on divergence or non-finite
  severities, emitting coded diagnostics;
* :mod:`repro.resilience.diagnostics` — the stable ``PVL3xx``/``PVL9xx``
  codes the guardrail and the CLI error paths report under.

``docs/resilience.md`` describes the fault model, the journal format,
resume semantics, and the degradation policy.
"""

from .diagnostics import (
    CLI_DOCUMENT,
    CLI_INTERRUPTED,
    CLI_IO,
    CLI_JOURNAL,
    CLI_JSON,
    CLI_STORAGE,
    GUARDRAIL_DEGRADED,
    GUARDRAIL_DIVERGENCE,
    GUARDRAIL_NONFINITE,
    coded_error,
)
from .faults import FaultPlan, FaultProxy, FaultSpec, active_plan
from .guardrail import GuardedBatchEngine
from .journal import RunJournal, journal_summary
from .resume import journal_fingerprint, population_fingerprint

__all__ = [
    "CLI_DOCUMENT",
    "CLI_INTERRUPTED",
    "CLI_IO",
    "CLI_JOURNAL",
    "CLI_JSON",
    "CLI_STORAGE",
    "GUARDRAIL_DEGRADED",
    "GUARDRAIL_DIVERGENCE",
    "GUARDRAIL_NONFINITE",
    "FaultPlan",
    "FaultProxy",
    "FaultSpec",
    "GuardedBatchEngine",
    "RunJournal",
    "active_plan",
    "coded_error",
    "journal_fingerprint",
    "journal_summary",
    "population_fingerprint",
]
