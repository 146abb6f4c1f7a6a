"""Widening sweeps: the quantitative heart of Sections 9's trade-off.

A sweep walks a widening path and, at every step, evaluates the entire
violation model against a *fixed* starting population: ``P(W)``,
``P(Default)``, total severity, the surviving population ``N_future``, and
the Section 9 utilities assuming the house gains ``extra_utility_per_step
x k`` per provider at step ``k``.

The resulting rows are exactly the series the expansion benchmarks print:
utility rises while widening buys more per provider than it loses to
defaults, then crosses over and falls — the paper's "detrimental effect
upon the data collector".
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Any, Hashable

from .._validation import check_int, check_real
from ..obs import active_observer, span
from ..core.economics import (
    break_even_extra_utility,
    utility_current,
    utility_future,
)
from ..core.policy import HousePolicy
from ..core.population import Population
from ..exceptions import SimulationError
from ..perf import BatchReport, BatchViolationEngine
from ..resilience.guardrail import GuardedBatchEngine
from ..resilience.resume import checkpoint, pinned_journal
from ..taxonomy.builder import Taxonomy
from .widening import WideningStep, widening_path


@dataclass(frozen=True, slots=True)
class SweepRow:
    """One widening level's full evaluation."""

    step: int
    policy_name: str
    n_current: int
    n_future: int
    n_violated: int
    violation_probability: float
    default_probability: float
    total_violations: float
    extra_utility: float
    utility_current: float
    utility_future: float
    break_even_extra_utility: float
    justified: bool
    defaulted_providers: tuple[Hashable, ...]

    @property
    def utility_gain(self) -> float:
        """``Utility_future - Utility_current`` at this step."""
        return self.utility_future - self.utility_current

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "SweepRow":
        """The row a journal step recorded as ``dataclasses.asdict(row)``."""
        return cls(
            **{
                **payload,
                "defaulted_providers": tuple(payload["defaulted_providers"]),
            }
        )


@dataclass(frozen=True)
class ExpansionSweep:
    """An entire widening sweep, one row per step."""

    scenario_name: str
    per_provider_utility: float
    extra_utility_per_step: float
    rows: tuple[SweepRow, ...]

    def best_step(self) -> SweepRow:
        """The widening level with the highest future utility."""
        if not self.rows:
            raise SimulationError("sweep has no rows")
        return max(self.rows, key=lambda row: (row.utility_future, -row.step))

    def crossover_step(self) -> int | None:
        """The first step whose future utility drops below the base utility.

        ``None`` when widening never becomes detrimental within the sweep.
        Step 0 is the unwidened policy, so the search starts at step 1.
        """
        if not self.rows:
            return None
        base = self.rows[0].utility_current
        for row in self.rows[1:]:
            if row.utility_future < base:
                return row.step
        return None

    def default_counts(self) -> tuple[int, ...]:
        """Cumulative defaulted-provider counts per step (for the CDF).

        Anchored to the first row's population so rows whose ``n_current``
        shrinks (multi-phase sweeps) still report cumulative, not
        incremental, defaults — mirroring
        :func:`repro.analysis.cdf.default_cdf_from_sweep`.
        """
        if not self.rows:
            return ()
        baseline = self.rows[0].n_current
        return tuple(baseline - row.n_future for row in self.rows)

    def series(self, column: str) -> tuple[float, ...]:
        """One named column across all rows (for plots and benches)."""
        return tuple(float(getattr(row, column)) for row in self.rows)


def build_sweep_row(
    report: BatchReport,
    *,
    step: int,
    n_current: int,
    per_provider_utility: float,
    extra_utility_per_step: float,
) -> SweepRow:
    """One sweep level's :class:`SweepRow` from its batch evaluation.

    The single source of the per-step arithmetic: every live level of
    :func:`run_expansion_sweep`, journaled or not, is built here, so an
    interrupted-and-resumed sweep is bit-for-bit identical to an
    uninterrupted one by construction.
    """
    defaulted = report.defaulted_ids()
    n_fut = n_current - len(defaulted)
    extra = extra_utility_per_step * step
    break_even = break_even_extra_utility(per_provider_utility, n_current, n_fut)
    return SweepRow(
        step=step,
        policy_name=report.policy_name,
        n_current=n_current,
        n_future=n_fut,
        n_violated=report.n_violated,
        violation_probability=report.violation_probability,
        default_probability=report.default_probability,
        total_violations=report.total_violations,
        extra_utility=extra,
        utility_current=utility_current(n_current, per_provider_utility),
        utility_future=utility_future(n_fut, per_provider_utility, extra),
        break_even_extra_utility=break_even,
        justified=extra > break_even,
        defaulted_providers=defaulted,
    )


def _check_sweep_arguments(
    max_steps: int, per_provider_utility: float, extra_utility_per_step: float
) -> None:
    """The argument checks every sweep runner makes before any work."""
    check_int(max_steps, "max_steps", minimum=0)
    check_real(per_provider_utility, "per_provider_utility", minimum=0.0)
    check_real(extra_utility_per_step, "extra_utility_per_step", minimum=0.0)


def run_expansion_sweep(
    population: Population,
    base_policy: HousePolicy,
    taxonomy: Taxonomy,
    *,
    step: WideningStep | None = None,
    max_steps: int = 5,
    per_provider_utility: float = 1.0,
    extra_utility_per_step: float = 0.25,
    attributes: Iterable[str] | None = None,
    purposes: Iterable[str] | None = None,
    scenario_name: str = "expansion-sweep",
    guarded: bool = False,
    journal_path: str | None = None,
) -> ExpansionSweep:
    """Walk a widening path, evaluating the full model at every level.

    Parameters
    ----------
    population:
        The fixed starting population (``N_current`` providers).
    base_policy:
        The current policy; assumed (and usually verified by the caller)
        to cause no defaults, matching Section 9's setup.
    taxonomy:
        Clamps widening to the ladders.
    step:
        The widening move applied per level (default: uniform +1 on all
        ordered dimensions).
    max_steps:
        Number of widening levels beyond the base policy.
    per_provider_utility:
        ``U`` — utility per provider under the base policy.
    extra_utility_per_step:
        The extra per-provider utility ``T`` gained *per widening level*;
        at level ``k`` the house enjoys ``T x k``.
    attributes, purposes:
        Restrict the widening's scope (see :func:`widen`).
    guarded:
        Evaluate through the
        :class:`~repro.resilience.guardrail.GuardedBatchEngine`, which
        spot-checks every level against the reference oracle and
        degrades to it on divergence.
    journal_path:
        Checkpoint every level to this
        :class:`~repro.resilience.journal.RunJournal`, created on the
        first call.  Called again after an interruption, the sweep
        replays the recorded levels without evaluating them and returns
        what an uninterrupted run returns, bit for bit.  A journal
        recorded for other inputs is refused
        (:func:`~repro.resilience.resume.pinned_journal`); arguments
        refused without a journal are refused before it is created.
    """
    _check_sweep_arguments(max_steps, per_provider_utility, extra_utility_per_step)
    if step is None:
        step = WideningStep.uniform(1)
    attributes = None if attributes is None else tuple(attributes)
    purposes = None if purposes is None else tuple(purposes)
    params: dict[str, Any] = {
        "max_steps": max_steps,
        "per_provider_utility": per_provider_utility,
        "extra_utility_per_step": extra_utility_per_step,
        "step": {dim.value: delta for dim, delta in step.deltas.items()},
        "attributes": None if attributes is None else sorted(attributes),
        "purposes": None if purposes is None else sorted(purposes),
        "implicit_zero": True,  # a constant every journal has carried
        "scenario_name": scenario_name,
    }
    n_current = len(population)
    obs = active_observer()
    with pinned_journal(
        journal_path,
        "sweep",
        population,
        [base_policy],
        params,
        max_steps=max_steps,
    ) as journal, span(
        "sweep.run",
        scenario=scenario_name,
        providers=n_current,
        max_steps=max_steps,
    ):
        payloads = [] if journal is None else journal.payloads()
        rows = [SweepRow.from_payload(payload) for payload in payloads]
        # One compilation serves the whole sweep; consecutive widening
        # levels share most (attribute, purpose) columns, so the batch
        # engine's delta path re-evaluates only what each step moved.
        engine = (GuardedBatchEngine if guarded else BatchViolationEngine)(population)
        for k, policy in widening_path(
            base_policy,
            step,
            taxonomy,
            max_steps,
            attributes=attributes,
            purposes=purposes,
        ):
            if k < len(rows):
                continue  # journaled: replayed, not re-evaluated
            start = perf_counter() if obs is not None else 0.0
            report = engine.evaluate(policy)
            row = build_sweep_row(
                report,
                step=k,
                n_current=n_current,
                per_provider_utility=per_provider_utility,
                extra_utility_per_step=extra_utility_per_step,
            )
            rows.append(row)
            if obs is not None:
                obs.inc("sweep.steps")
                obs.observe("sweep.step_seconds", perf_counter() - start)
            if journal is not None:
                checkpoint(journal, asdict(row), "sweep.step")
    return ExpansionSweep(
        scenario_name=scenario_name,
        per_provider_utility=per_provider_utility,
        extra_utility_per_step=extra_utility_per_step,
        rows=tuple(rows),
    )
