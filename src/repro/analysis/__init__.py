"""Analysis and reporting over violation-model evaluations.

* :mod:`repro.analysis.reports` — per-provider / per-attribute /
  per-dimension violation breakdowns from an engine report;
* :mod:`repro.analysis.aggregates` — population-level summary statistics
  (by segment, severity distributions);
* :mod:`repro.analysis.cdf` — the empirical cumulative distribution of
  defaults as the house widens (Section 10's proposed estimator);
* :mod:`repro.analysis.certification` — alpha-PPDB certification
  documents suitable for publishing;
* :mod:`repro.analysis.tables` — fixed-width text tables used by the
  benchmark harness to print paper-style rows.
"""

from .reports import ViolationMatrix, violation_matrix
from .aggregates import PopulationSummary, SegmentStats, summarize
from .cdf import DefaultCDF, default_cdf_from_sweep
from .certification import CertificationDocument, batch_certification_document
from .frontier import FrontierPoint, ParetoFrontier, pareto_frontier
from .lint_report import LintReport, lint_report_table
from .tables import format_table

__all__ = [
    "LintReport",
    "lint_report_table",
    "FrontierPoint",
    "ParetoFrontier",
    "pareto_frontier",
    "ViolationMatrix",
    "violation_matrix",
    "PopulationSummary",
    "SegmentStats",
    "summarize",
    "DefaultCDF",
    "default_cdf_from_sweep",
    "CertificationDocument",
    "batch_certification_document",
    "format_table",
]
