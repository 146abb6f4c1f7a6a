"""Checkpointed, resumable versions of the long-running workloads.

Each runner wraps an existing workload — the Section 9 widening sweep,
the multi-round default dynamics, the Section 10 forecast replay — and
checkpoints one :class:`~repro.resilience.journal.RunJournal` step per
unit of work (sweep level, dynamics round, observed history policy).  A
run killed between steps resumes from its journal and produces output
**bit-for-bit identical** to an uninterrupted run, because:

* completed steps are *replayed from the journal*, never re-evaluated;
* live steps are computed by the same shared builders the uninterrupted
  runners use (:func:`~repro.simulation.scenario.build_sweep_row`,
  :func:`~repro.simulation.dynamics.build_round_outcome`,
  :func:`~repro.estimation.observation.apply_policy_observation`);
* the journal pins an input **fingerprint** — resuming against different
  inputs is refused with a coded error instead of mixing two runs.

A sweep journal holding shard checkpoints, a format only the retired
worker-pool sweeps wrote, is refused the same way.

Provider ids must survive a JSON round trip (strings, ints) for a run to
be journalable; this is checked up front.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable, Sequence
from typing import Any, Hashable

from ..core.policy import HousePolicy
from ..core.population import Population
from ..estimation.forecast import DefaultForecast, forecast_defaults
from ..estimation.observation import (
    apply_policy_observation,
    observations_from_state,
)
from ..estimation.thresholds import ThresholdEstimator
from ..exceptions import JournalMismatchError, ResilienceError
from ..obs import active_observer, span
from ..perf import BatchViolationEngine
from ..policy_lang.serializer import policy_to_dict, preferences_to_dict
from ..policy_lang.serializer import sensitivities_to_dict
from ..simulation.dynamics import (
    RoundOutcome,
    _check_dynamics_arguments,
    build_round_outcome,
    round_policy,
)
from ..simulation.scenario import (
    ExpansionSweep,
    SweepRow,
    _check_sweep_arguments,
    build_sweep_row,
)
from ..simulation.widening import WideningStep, widening_path
from ..taxonomy.builder import Taxonomy
from .faults import active_plan
from .guardrail import GuardedBatchEngine
from .journal import RunJournal

# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


def _canonical_json(value: Any) -> str:
    try:
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as error:
        raise ResilienceError(
            f"run inputs are not JSON-canonicalizable: {error}"
        ) from error


def population_fingerprint(population: Population) -> str:
    """A content hash over a population's model-relevant state.

    Covers provider order, ids, preferences, supplied attributes,
    thresholds, segments, and the population's sensitivity model — every
    input the violation engines read.
    """
    document = {
        "providers": [
            {
                "preferences": preferences_to_dict(provider.preferences),
                "threshold": provider.threshold,
                "segment": provider.segment,
            }
            for provider in population
        ],
        "sensitivities": sensitivities_to_dict(population.sensitivity_model()),
    }
    return hashlib.sha256(_canonical_json(document).encode("utf-8")).hexdigest()


def journal_fingerprint(
    kind: str,
    *,
    population: Population,
    policies: Sequence[HousePolicy],
    params: dict[str, Any],
    mutation_epoch: int = 0,
) -> str:
    """The input fingerprint a journal pins its run to.

    Hashes the run kind, the population fingerprint, every input policy
    (serialized with raw ranks, so taxonomy level names cannot alias),
    the run parameters, and the **mutation epoch** — the
    :attr:`~repro.perf.batch.BatchViolationEngine.epoch` the population
    corresponds to.  A population snapshot taken after in-place engine
    mutations carries a different epoch than the run start, so a journal
    recorded against one cannot silently resume against the other even
    when the provider content happens to hash alike.
    """
    document = {
        "kind": kind,
        "population": population_fingerprint(population),
        "policies": [policy_to_dict(policy) for policy in policies],
        "params": params,
        "mutation_epoch": int(mutation_epoch),
    }
    return hashlib.sha256(_canonical_json(document).encode("utf-8")).hexdigest()


def _check_journalable_ids(population: Population) -> None:
    for provider_id in population.ids():
        try:
            restored = json.loads(json.dumps(provider_id))
        except (TypeError, ValueError):
            restored = None
        if restored != provider_id:
            raise ResilienceError(
                f"provider id {provider_id!r} does not survive a JSON round "
                f"trip; journaled runs need string or integer ids"
            )


def _step_payload(step: WideningStep) -> dict[str, int]:
    return {dim.value: delta for dim, delta in sorted(
        step.deltas.items(), key=lambda item: item[0].value
    )}


def _scope_payload(values: Iterable[str] | None) -> list[str] | None:
    return None if values is None else sorted(values)


def _fire(site: str) -> None:
    plan = active_plan()
    if plan is not None:
        plan.check(site)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _refuse_shard_checkpoints(journal: RunJournal) -> None:
    """Refuse a sweep journal that holds retired shard checkpoints.

    Sweeps once evaluated on worker pools journaled each finished shard
    as a ``{"kind": "shard", ...}`` step between the level rows.  The
    serial engine cannot replay those partial results, so such a journal
    is refused rather than resumed.
    """
    if any(payload.get("kind") == "shard" for payload in journal.payloads()):
        raise JournalMismatchError(
            f"journal {journal.path!r} holds shard checkpoints from a "
            f"worker-pool sweep, a retired format that cannot be resumed; "
            f"remove it and rerun the sweep"
        )


def _sweep_row_payload(row: SweepRow) -> dict[str, Any]:
    return {
        "step": row.step,
        "policy_name": row.policy_name,
        "n_current": row.n_current,
        "n_future": row.n_future,
        "n_violated": row.n_violated,
        "violation_probability": row.violation_probability,
        "default_probability": row.default_probability,
        "total_violations": row.total_violations,
        "extra_utility": row.extra_utility,
        "utility_current": row.utility_current,
        "utility_future": row.utility_future,
        "break_even_extra_utility": row.break_even_extra_utility,
        "justified": row.justified,
        "defaulted_providers": list(row.defaulted_providers),
    }


def _sweep_row_from_payload(payload: dict[str, Any]) -> SweepRow:
    return SweepRow(
        step=payload["step"],
        policy_name=payload["policy_name"],
        n_current=payload["n_current"],
        n_future=payload["n_future"],
        n_violated=payload["n_violated"],
        violation_probability=payload["violation_probability"],
        default_probability=payload["default_probability"],
        total_violations=payload["total_violations"],
        extra_utility=payload["extra_utility"],
        utility_current=payload["utility_current"],
        utility_future=payload["utility_future"],
        break_even_extra_utility=payload["break_even_extra_utility"],
        justified=payload["justified"],
        defaulted_providers=tuple(payload["defaulted_providers"]),
    )


def resumable_sweep(
    population: Population,
    base_policy: HousePolicy,
    taxonomy: Taxonomy,
    *,
    journal_path: str,
    step: WideningStep | None = None,
    max_steps: int = 5,
    per_provider_utility: float = 1.0,
    extra_utility_per_step: float = 0.25,
    attributes: Iterable[str] | None = None,
    purposes: Iterable[str] | None = None,
    scenario_name: str = "expansion-sweep",
    implicit_zero: bool = True,
    guarded: bool = False,
) -> ExpansionSweep:
    """A widening sweep that checkpoints every level to *journal_path*.

    Creates the journal on first call; called again after an
    interruption it resumes, re-evaluating nothing already recorded.
    The returned :class:`ExpansionSweep` is bit-for-bit equal to what
    :func:`~repro.simulation.scenario.run_expansion_sweep` returns
    uninterrupted with the same arguments.

    With ``guarded=True`` live steps are evaluated through the
    :class:`~repro.resilience.guardrail.GuardedBatchEngine`.  A journal
    holding shard checkpoints (a format only worker-pool sweeps wrote)
    is refused with :class:`~repro.exceptions.JournalMismatchError`.
    Arguments the plain runner refuses are refused the same way before
    the journal is created.
    """
    _check_sweep_arguments(max_steps, per_provider_utility, extra_utility_per_step)
    if step is None:
        step = WideningStep.uniform(1)
    _check_journalable_ids(population)
    attributes = None if attributes is None else tuple(attributes)
    purposes = None if purposes is None else tuple(purposes)
    params: dict[str, Any] = {
        "max_steps": max_steps,
        "per_provider_utility": per_provider_utility,
        "extra_utility_per_step": extra_utility_per_step,
        "step": _step_payload(step),
        "attributes": _scope_payload(attributes),
        "purposes": _scope_payload(purposes),
        "implicit_zero": implicit_zero,
        "scenario_name": scenario_name,
    }
    fingerprint = journal_fingerprint(
        "sweep", population=population, policies=[base_policy], params=params
    )
    with RunJournal.resume_or_create(
        journal_path, kind="sweep", fingerprint=fingerprint, params=params
    ) as journal, span(
        "resume.sweep", journal=journal_path, max_steps=max_steps
    ):
        _refuse_shard_checkpoints(journal)
        rows = [_sweep_row_from_payload(p) for p in journal.payloads()]
        obs = active_observer()
        if obs is not None and rows:
            obs.inc("resume.replayed_steps", len(rows), kind="sweep")
        engine = None
        n_current = len(population)
        try:
            for k, policy in widening_path(
                base_policy,
                step,
                taxonomy,
                max_steps,
                attributes=attributes,
                purposes=purposes,
            ):
                if k < len(rows):
                    continue  # already journaled: replayed, not re-evaluated
                if engine is None:
                    engine = (
                        GuardedBatchEngine(population, implicit_zero=implicit_zero)
                        if guarded
                        else BatchViolationEngine(
                            population, implicit_zero=implicit_zero
                        )
                    )
                report = engine.evaluate(policy)
                row = build_sweep_row(
                    report,
                    step=k,
                    n_current=n_current,
                    per_provider_utility=per_provider_utility,
                    extra_utility_per_step=extra_utility_per_step,
                )
                journal.record_step(_sweep_row_payload(row))
                rows.append(row)
                if obs is not None:
                    obs.inc("resume.live_steps", kind="sweep")
                _fire("sweep.step")
        finally:
            if engine is not None:
                engine.close()
        return ExpansionSweep(
            scenario_name=scenario_name,
            per_provider_utility=per_provider_utility,
            extra_utility_per_step=extra_utility_per_step,
            rows=tuple(rows),
        )


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------


def _round_payload(outcome: RoundOutcome) -> dict[str, Any]:
    return {
        "round_index": outcome.round_index,
        "policy_name": outcome.policy_name,
        "n_start": outcome.n_start,
        "n_defaulted": outcome.n_defaulted,
        "n_remaining": outcome.n_remaining,
        "violation_probability": outcome.violation_probability,
        "total_violations": outcome.total_violations,
        "utility": outcome.utility,
        "defaulted_providers": list(outcome.defaulted_providers),
    }


def _round_from_payload(payload: dict[str, Any]) -> RoundOutcome:
    return RoundOutcome(
        round_index=payload["round_index"],
        policy_name=payload["policy_name"],
        n_start=payload["n_start"],
        n_defaulted=payload["n_defaulted"],
        n_remaining=payload["n_remaining"],
        violation_probability=payload["violation_probability"],
        total_violations=payload["total_violations"],
        utility=payload["utility"],
        defaulted_providers=tuple(payload["defaulted_providers"]),
    )


def resumable_dynamics(
    population: Population,
    base_policy: HousePolicy,
    taxonomy: Taxonomy,
    *,
    journal_path: str,
    rounds: int,
    step: WideningStep | None = None,
    per_provider_utility: float = 1.0,
    extra_utility_per_round: float = 0.25,
    implicit_zero: bool = True,
    guarded: bool = False,
    mutation_epoch: int = 0,
) -> list[RoundOutcome]:
    """Multi-round dynamics, checkpointing one journal step per round.

    Matches :func:`~repro.simulation.dynamics.run_dynamics` bit-for-bit:
    recorded rounds are replayed (the surviving population is advanced
    from the journaled departures without touching the engine), live
    rounds are evaluated through the shared round builder against **one**
    engine whose departures are tombstoned in place — the compilation
    survives the whole run.  ``mutation_epoch`` is part of the journal
    fingerprint: pass the
    :attr:`~repro.perf.batch.BatchViolationEngine.epoch` the input
    population was snapshotted at (0 for a run-start population), and a
    journal recorded at a different epoch refuses to resume instead of
    silently mixing two mutation histories.  Arguments the plain runner
    refuses are refused the same way before the journal is created.
    """
    _check_dynamics_arguments(rounds, per_provider_utility, extra_utility_per_round)
    if step is None:
        step = WideningStep.uniform(1)
    _check_journalable_ids(population)
    params: dict[str, Any] = {
        "rounds": rounds,
        "per_provider_utility": per_provider_utility,
        "extra_utility_per_round": extra_utility_per_round,
        "step": _step_payload(step),
        "implicit_zero": implicit_zero,
    }
    fingerprint = journal_fingerprint(
        "dynamics",
        population=population,
        policies=[base_policy],
        params=params,
        mutation_epoch=mutation_epoch,
    )
    with RunJournal.resume_or_create(
        journal_path, kind="dynamics", fingerprint=fingerprint, params=params
    ) as journal, span("resume.dynamics", journal=journal_path, rounds=rounds):
        recorded = [_round_from_payload(p) for p in journal.payloads()]
        obs = active_observer()
        if obs is not None and recorded:
            obs.inc("resume.replayed_steps", len(recorded), kind="dynamics")
        outcomes: list[RoundOutcome] = []
        current_population = population
        current_policy = round_policy(
            base_policy, base_policy.name, step, taxonomy, 0
        )
        engine: Any = None
        try:
            for round_index in range(rounds):
                if len(current_population) == 0:
                    break
                if round_index > 0:
                    current_policy = round_policy(
                        current_policy, base_policy.name, step, taxonomy, round_index
                    )
                if round_index < len(recorded):
                    # Replay: advance the survivor set from the journal
                    # without touching the engine.
                    outcome = recorded[round_index]
                    outcomes.append(outcome)
                    if outcome.defaulted_providers:
                        current_population = current_population.without(
                            outcome.defaulted_providers
                        )
                    continue
                if engine is None:
                    engine = (
                        GuardedBatchEngine(
                            current_population, implicit_zero=implicit_zero
                        )
                        if guarded
                        else BatchViolationEngine(
                            current_population, implicit_zero=implicit_zero
                        )
                    )
                report = engine.evaluate(current_policy)
                outcome = build_round_outcome(
                    report,
                    round_index=round_index,
                    per_provider_utility=per_provider_utility,
                    extra_utility_per_round=extra_utility_per_round,
                )
                journal.record_step(_round_payload(outcome))
                outcomes.append(outcome)
                if obs is not None:
                    obs.inc("resume.live_steps", kind="dynamics")
                _fire("dynamics.round")
                if outcome.defaulted_providers:
                    current_population = current_population.without(
                        outcome.defaulted_providers
                    )
                    engine.remove(outcome.defaulted_providers)
        finally:
            if engine is not None:
                engine.close()
        return outcomes


# ---------------------------------------------------------------------------
# forecast
# ---------------------------------------------------------------------------


def _pairs(mapping: dict[Hashable, float]) -> list[list[Any]]:
    return [
        [key, value]
        for key, value in sorted(mapping.items(), key=lambda item: repr(item[0]))
    ]


def resumable_forecast(
    population: Population,
    history: Sequence[HousePolicy],
    candidate: HousePolicy,
    *,
    journal_path: str,
    per_provider_utility: float = 1.0,
    implicit_zero: bool = True,
) -> DefaultForecast:
    """Section 10 forecasting with the history replay checkpointed.

    The expensive part of a forecast is replaying the deployed-policy
    history to recover interval-censored threshold observations; one
    journal step records the observation state after each history
    policy.  A resumed forecast restores the state from the last step
    and replays only the remaining policies, then forecasts the
    candidate — matching an uninterrupted
    :func:`~repro.estimation.forecast.forecast_defaults` over
    :func:`~repro.estimation.observation.observe_widening_history`
    bit-for-bit.
    """
    _check_journalable_ids(population)
    params: dict[str, Any] = {
        "per_provider_utility": per_provider_utility,
        "implicit_zero": implicit_zero,
        "n_history": len(history),
    }
    fingerprint = journal_fingerprint(
        "forecast",
        population=population,
        policies=[*history, candidate],
        params=params,
    )
    with RunJournal.resume_or_create(
        journal_path, kind="forecast", fingerprint=fingerprint, params=params
    ) as journal, span(
        "resume.forecast", journal=journal_path, n_history=len(history)
    ):
        payloads = journal.payloads()
        obs = active_observer()
        if obs is not None and payloads:
            obs.inc("resume.replayed_steps", len(payloads), kind="forecast")
        if payloads:
            state = payloads[-1]
            remaining: set[Hashable] = set(state["remaining"])
            last_tolerated: dict[Hashable, float] = dict(
                (key, value) for key, value in state["last_tolerated"]
            )
            departures: dict[Hashable, float] = dict(
                (key, value) for key, value in state["departures"]
            )
        else:
            remaining = {provider.provider_id for provider in population}
            last_tolerated = {
                provider.provider_id: 0.0 for provider in population
            }
            departures = {}
        engine = None
        for index, policy in enumerate(history):
            if index < len(payloads):
                continue  # this policy's observations are already journaled
            if remaining:
                if engine is None:
                    engine = BatchViolationEngine(
                        population, implicit_zero=implicit_zero
                    )
                report = engine.evaluate(policy)
                apply_policy_observation(
                    report, remaining, last_tolerated, departures
                )
            journal.record_step(
                {
                    "index": index,
                    "remaining": sorted(remaining, key=repr),
                    "last_tolerated": _pairs(last_tolerated),
                    "departures": _pairs(departures),
                }
            )
            if obs is not None:
                obs.inc("resume.live_steps", kind="forecast")
            _fire("forecast.observe")
        observations = observations_from_state(
            population, last_tolerated, departures
        )
        estimator = ThresholdEstimator(observations)
        return forecast_defaults(
            estimator,
            population,
            candidate,
            per_provider_utility=per_provider_utility,
            implicit_zero=implicit_zero,
        )
