"""``repro.lint`` — a static policy analyzer with coded diagnostics.

The paper's violation model is decidable from the documents alone: a
house policy tuple exceeding a provider preference tuple (Definition 1)
can be detected before any data is collected, and alpha-PPDB
certification (Definition 3) is a static property of the
policy/population pair.  This package performs that reasoning as a
linter: a registry of rules with stable codes (``PVL001``...), each
consuming the parsed documents and emitting structured
:class:`Diagnostic` objects with severities, source locations, and
machine-readable payloads.

Four layers (see ``docs/linting.md`` for the full catalogue):

* **document** (``PVL0xx``) — each document against the taxonomy:
  unknown purposes/levels, undeclared attributes, duplicate rows,
  non-monotone ladders;
* **model** (``PVL1xx``) — cross-document analysis: guaranteed
  violations, shadowed rules, unreachable purposes, zero sensitivities,
  dead rules, inert/dominated preferences, static alpha-PPDB
  certification with the witness segment;
* **economics** (``PVL201``-``PVL202``) — Eq. 31 sanity for candidate
  widenings: annihilated populations and unattainable break-even
  utilities;
* **population** (``PVL210``-``PVL214``) — the policy/population pair
  through the severity-interval abstraction
  (:mod:`repro.lint.intervals`): dead and subsumed preference clauses,
  vacuous policies, statically certifiable populations, statically
  inevitable defaults.

Entry points: :func:`lint_documents` (documents in, :class:`LintReport`
out: one :func:`build_context`, one :func:`run_rules` over it), the
:mod:`~repro.lint.plugins` registration API for external rules, and the
``repro lint`` CLI subcommand (``--format text|json|sarif``,
severity-gated exit codes, ``--baseline`` ratcheting).
"""

from .baseline import (
    apply_baseline,
    diagnostic_fingerprint,
    fingerprint,
    load_baseline,
    write_baseline,
)
from .diagnostics import Diagnostic, Severity, SourceLocation
from .formats import (
    FORMATS,
    render,
    render_json,
    render_sarif,
    render_text,
)
from .intervals import (
    PopulationIntervals,
    ProviderSeverityBounds,
    SeverityInterval,
    interval_analysis,
)
from .plugins import lint_rule, load_entry_point_rules, plugin_load_errors
from .registry import (
    SCOPES,
    Layer,
    LintConfig,
    LintContext,
    RuleInfo,
    all_rules,
    get_rule,
    run_rules,
    unregister_rule,
)
from .report import LintReport
from .runner import build_context, lint_documents

__all__ = [
    "Diagnostic",
    "FORMATS",
    "Layer",
    "LintConfig",
    "LintContext",
    "LintReport",
    "PopulationIntervals",
    "ProviderSeverityBounds",
    "RuleInfo",
    "SCOPES",
    "Severity",
    "SeverityInterval",
    "SourceLocation",
    "all_rules",
    "apply_baseline",
    "build_context",
    "diagnostic_fingerprint",
    "fingerprint",
    "get_rule",
    "interval_analysis",
    "lint_documents",
    "lint_rule",
    "load_baseline",
    "load_entry_point_rules",
    "plugin_load_errors",
    "render",
    "render_json",
    "render_sarif",
    "render_text",
    "run_rules",
    "unregister_rule",
    "write_baseline",
]
