"""Vectorized batch evaluation of the violation model.

The reference engine (:class:`~repro.core.engine.ViolationEngine`)
evaluates one policy over one population with a per-provider Python loop
— ideal as an executable specification, linear but slow as a serving
path.  This package is the production path:

* :class:`~repro.perf.compiled.CompiledPopulation` — a one-time
  compilation of a population (plus any sensitivity and default model
  overrides) into dense NumPy arrays, which also takes population churn
  in place: removals tombstone rows, appends and updates touch only
  their own rows;
* :class:`~repro.perf.batch.BatchViolationEngine` — vectorized
  Definition 1 / Eqs. 12-16 / Definitions 2-5 over those arrays, with
  policy fingerprinting, report caching, incremental re-evaluation of
  single-rule policy deltas, and ``remove`` / ``append`` / ``update``,
  so one engine survives a whole dynamics, equilibrium, or widening run;
* :func:`~repro.perf.sweep.batch_assess_expansion` — Section 9 economics
  read directly off a batch report.

Evaluation is serial: a house's Eq. 16 total is a sum of independent
per-provider terms that the batch engine already computes in a few
milliseconds per policy at 100k providers.  The batch engine matches the
reference engine exactly (see ``tests/properties/test_batch_parity.py``),
and after any mutation sequence it matches a fresh compile of the
providers still present bit-for-bit
(``tests/properties/test_mutation_parity.py``); ``docs/performance.md``
describes the compile/evaluate/sweep lifecycle and when to prefer which
engine.
"""

from .batch import (
    BatchReport,
    BatchViolationEngine,
    assemble_report,
    changed_column_keys,
    column_contribution,
    policy_columns,
    policy_fingerprint,
    row_contribution,
    sum_column_arrays,
)
from .compiled import CompiledColumn, CompiledPopulation, RANK_AXES
from .sweep import batch_assess_expansion

__all__ = [
    "BatchReport",
    "BatchViolationEngine",
    "CompiledColumn",
    "CompiledPopulation",
    "RANK_AXES",
    "assemble_report",
    "batch_assess_expansion",
    "changed_column_keys",
    "column_contribution",
    "policy_columns",
    "policy_fingerprint",
    "row_contribution",
    "sum_column_arrays",
]
