"""Multi-round default dynamics.

Section 10 anticipates "real-time dynamics occurring between a house and a
set of data providers".  This module runs the simplest faithful version:
the house widens its policy once per round; providers whose accumulated
severity under the *current* policy exceeds their threshold default and
**permanently leave**; the next round is evaluated over the survivors.

Because departures are permanent, the population is non-increasing and the
dynamics always terminate.  Round utilities use Section 9's arithmetic
with the extra utility growing per round, so a run shows the same
rise-then-fall shape as the static sweep but with the *path dependence*
the static analysis cannot capture (early defaulters are not re-counted).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import asdict, dataclass
from typing import Any, Hashable

from .._validation import check_int, check_real
from ..obs import active_observer, span
from ..core.policy import HousePolicy
from ..core.population import Population
from ..perf import BatchReport, BatchViolationEngine
from ..resilience.resume import checkpoint, pinned_journal
from ..taxonomy.builder import Taxonomy
from .widening import WideningStep, policy_delta_columns, widen


@dataclass(frozen=True, slots=True)
class RoundOutcome:
    """One round of the widening-and-default dynamics."""

    round_index: int
    policy_name: str
    n_start: int
    n_defaulted: int
    n_remaining: int
    violation_probability: float
    total_violations: float
    utility: float
    defaulted_providers: tuple[Hashable, ...]

    @property
    def retention_rate(self) -> float:
        """Fraction of this round's starting providers who stayed."""
        if self.n_start == 0:
            return 1.0
        return self.n_remaining / self.n_start

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "RoundOutcome":
        """The round a journal step recorded as ``dataclasses.asdict(round)``."""
        return cls(
            **{
                **payload,
                "defaulted_providers": tuple(payload["defaulted_providers"]),
            }
        )


def round_policy(
    previous: HousePolicy,
    base_name: str,
    step: WideningStep,
    taxonomy: Taxonomy,
    round_index: int,
) -> HousePolicy:
    """The policy in force at *round_index*, widened from *previous*.

    Round 0 is the base policy renamed ``<base>@r0``; each later round
    widens the previous round's policy once.  :func:`run_dynamics` builds
    every round's policy here, replayed rounds included, so a resumed run
    reconstructs the identical policy sequence.
    """
    if round_index == 0:
        return HousePolicy(previous.entries, name=f"{base_name}@r0")
    return widen(previous, step, taxonomy, name=f"{base_name}@r{round_index}")


def build_round_outcome(
    report: BatchReport,
    *,
    round_index: int,
    per_provider_utility: float,
    extra_utility_per_round: float,
) -> RoundOutcome:
    """One round's :class:`RoundOutcome` from its batch evaluation.

    Like :func:`repro.simulation.scenario.build_sweep_row`, this is the
    single source of the per-round arithmetic: every live round of
    :func:`run_dynamics`, journaled or not, is built here.
    """
    defaulted = report.defaulted_ids()
    n_start = report.n_providers
    n_remaining = n_start - len(defaulted)
    return RoundOutcome(
        round_index=round_index,
        policy_name=report.policy_name,
        n_start=n_start,
        n_defaulted=len(defaulted),
        n_remaining=n_remaining,
        violation_probability=report.violation_probability,
        total_violations=report.total_violations,
        utility=n_remaining
        * (per_provider_utility + extra_utility_per_round * round_index),
        defaulted_providers=defaulted,
    )


def _check_dynamics_arguments(
    rounds: int, per_provider_utility: float, extra_utility_per_round: float
) -> None:
    """The argument checks every dynamics runner makes before any work."""
    check_int(rounds, "rounds", minimum=1)
    check_real(per_provider_utility, "per_provider_utility", minimum=0.0)
    check_real(extra_utility_per_round, "extra_utility_per_round", minimum=0.0)


def run_dynamics(
    population: Population,
    base_policy: HousePolicy,
    taxonomy: Taxonomy,
    *,
    rounds: int,
    step: WideningStep | None = None,
    per_provider_utility: float = 1.0,
    extra_utility_per_round: float = 0.25,
    journal_path: str | None = None,
) -> list[RoundOutcome]:
    """Run *rounds* rounds of widen-then-default over a shrinking population.

    Round 0 evaluates the base policy; each later round widens once more.
    The utility of a round is ``n_remaining x (U + T x round)`` — what the
    house actually extracts from the providers who stayed through it.

    Returns one :class:`RoundOutcome` per round, including rounds where
    nobody defaults.  Stops early when the population empties.

    With *journal_path*, every round is checkpointed to a
    :class:`~repro.resilience.journal.RunJournal`, created on the first
    call.  Called again after an interruption, the run replays the
    recorded rounds — removing their departures from the engine without
    evaluating — and returns what an uninterrupted run returns, bit for
    bit.  A journal recorded for other inputs is refused
    (:func:`~repro.resilience.resume.pinned_journal`); arguments refused
    without a journal are refused before it is created.
    """
    _check_dynamics_arguments(rounds, per_provider_utility, extra_utility_per_round)
    if step is None:
        step = WideningStep.uniform(1)
    params: dict[str, Any] = {
        "rounds": rounds,
        "per_provider_utility": per_provider_utility,
        "extra_utility_per_round": extra_utility_per_round,
        "step": {dim.value: delta for dim, delta in step.deltas.items()},
        "implicit_zero": True,  # a constant every journal has carried
    }
    outcomes: list[RoundOutcome] = []
    current_policy = round_policy(base_policy, base_policy.name, step, taxonomy, 0)
    previous_policy: HousePolicy | None = None
    n_remaining = len(population)
    obs = active_observer()
    with pinned_journal(
        journal_path,
        "dynamics",
        population,
        [base_policy],
        params,
        rounds=rounds,
    ) as journal, span("dynamics.run", providers=len(population), rounds=rounds):
        payloads = [] if journal is None else journal.payloads()
        recorded = [RoundOutcome.from_payload(payload) for payload in payloads]
        # One engine — one compilation — serves every round: departures
        # are tombstoned in place rather than triggering a rebuild, and
        # consecutive round policies recompute only their changed columns
        # (the batch engine's delta path; docs/performance.md).
        engine = BatchViolationEngine(population)
        for round_index in range(rounds):
            if n_remaining == 0:
                break
            if round_index > 0:
                previous_policy = current_policy
                current_policy = round_policy(
                    current_policy, base_policy.name, step, taxonomy, round_index
                )
            if round_index < len(recorded):
                # Journaled: the round's departures leave the engine
                # below, as in an uninterrupted run, but nothing is
                # evaluated.
                outcome = recorded[round_index]
            else:
                if obs is not None and previous_policy is not None:
                    obs.inc(
                        "dynamics.policy_columns_changed",
                        len(policy_delta_columns(previous_policy, current_policy)),
                    )
                report = engine.evaluate(current_policy)
                outcome = build_round_outcome(
                    report,
                    round_index=round_index,
                    per_provider_utility=per_provider_utility,
                    extra_utility_per_round=extra_utility_per_round,
                )
                if obs is not None:
                    obs.inc("dynamics.rounds")
                    obs.inc("dynamics.departures", outcome.n_defaulted)
                if journal is not None:
                    checkpoint(journal, asdict(outcome), "dynamics.round")
            outcomes.append(outcome)
            n_remaining = outcome.n_remaining
            if outcome.defaulted_providers:
                engine.remove(outcome.defaulted_providers)
    return outcomes


def surviving_ids(outcomes: list[RoundOutcome], population: Population) -> Iterator[Hashable]:
    """The providers still present after the last recorded round."""
    departed = {
        provider_id
        for outcome in outcomes
        for provider_id in outcome.defaulted_providers
    }
    for provider in population:
        if provider.provider_id not in departed:
            yield provider.provider_id
