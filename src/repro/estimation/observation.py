"""Observed default behaviour under a widening history.

A house running a legacy system sees *behaviour*, not preferences: after
each policy expansion, some providers leave.  Each departure brackets the
provider's unknown threshold ``v_i`` between the severity the previous
policy inflicted on them (they tolerated it) and the severity of the
policy that drove them out — an **interval-censored** observation.
Providers who never leave give a one-sided (right-censored) observation.

What the house *can* compute, even without knowing ``v_i``, is the
severity each policy would inflict — that only needs the preferences and
sensitivities it collects at sign-up (or, for a fully blind house, any
monotone proxy of exposure).  :func:`observe_widening_history` plays the
role of the paper's "long-term observation", producing the observation
list an estimator consumes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Hashable

from ..core.policy import HousePolicy
from ..core.population import Population
from ..exceptions import ValidationError
from ..perf import BatchViolationEngine
from ..resilience.resume import checkpoint, pinned_journal


@dataclass(frozen=True, slots=True)
class DefaultObservation:
    """One provider's observed departure behaviour.

    ``lower`` is the largest severity the provider was seen to tolerate;
    ``upper`` is the severity of the policy under which they left, or
    ``None`` when they never left (right-censored): ``v_i`` lies in
    ``(lower, upper]`` under the paper's strict-inequality semantics,
    or in ``(lower, inf)`` when censored.
    """

    provider_id: Hashable
    lower: float
    upper: float | None

    def __post_init__(self) -> None:
        if self.lower < 0:
            raise ValidationError("lower severity bound must be >= 0")
        if self.upper is not None and self.upper < self.lower:
            raise ValidationError(
                f"upper bound {self.upper} below lower bound {self.lower}"
            )

    @property
    def censored(self) -> bool:
        """True when the provider never defaulted within the history."""
        return self.upper is None


def apply_policy_observation(
    report,
    remaining: set[Hashable],
    last_tolerated: dict[Hashable, float],
    departures: dict[Hashable, float],
) -> None:
    """Fold one policy's batch report into the observation state.

    Mutates the three state maps in place: providers whose severity
    crosses their threshold move from *remaining* into *departures*;
    survivors' *last_tolerated* advances.  Every live policy of
    :func:`observe_widening_history`, journaled or not, goes through
    this one transition.

    Raises
    ------
    ValidationError
        If a provider's severity decreased relative to the severity they
        last tolerated (the history is not a monotone widening path, so
        the interval bracketing would be unsound).
    """
    for row, provider_id in enumerate(report.provider_ids):
        if provider_id not in remaining:
            continue
        violation = float(report.violations[row])
        previous = last_tolerated[provider_id]
        if violation < previous - 1e-9:
            raise ValidationError(
                "severities decreased along the policy sequence; "
                "observations would not bracket thresholds"
            )
        if report.defaulted[row]:
            departures[provider_id] = violation
            remaining.discard(provider_id)
        else:
            last_tolerated[provider_id] = violation


def observations_from_state(
    population: Population,
    last_tolerated: dict[Hashable, float],
    departures: dict[Hashable, float],
) -> list[DefaultObservation]:
    """The per-provider observation list from a replayed state."""
    return [
        DefaultObservation(
            provider_id=provider.provider_id,
            lower=last_tolerated[provider.provider_id],
            upper=departures.get(provider.provider_id),
        )
        for provider in population
    ]


def _pairs(mapping: dict[Hashable, float]) -> list[list[Any]]:
    return [
        [key, value]
        for key, value in sorted(mapping.items(), key=lambda item: repr(item[0]))
    ]


def observe_widening_history(
    population: Population,
    policies: Sequence[HousePolicy],
    *,
    journal_path: str | None = None,
) -> list[DefaultObservation]:
    """Replay a widening history and record who left after which policy.

    Parameters
    ----------
    population:
        The initial providers (with their true thresholds — used only to
        *simulate* the behaviour; the observations expose severities, not
        thresholds).
    policies:
        The policy sequence the house deployed, in order.  Severities must
        be non-decreasing along the sequence for the bracketing to be
        sound; this holds for any monotone widening path and is verified
        per provider.
    journal_path:
        Checkpoint the observation state after each policy to this
        :class:`~repro.resilience.journal.RunJournal`, created on the
        first call.  Called again after an interruption, the replay
        restores the last recorded state and evaluates only the
        remaining policies, returning what an uninterrupted replay
        returns, bit for bit.  A journal recorded for another history or
        population is refused
        (:func:`~repro.resilience.resume.pinned_journal`).

    Returns
    -------
    list[DefaultObservation]
        One observation per initial provider.
    """
    if not policies:
        raise ValidationError("need at least one policy to observe")
    # The completion flag is a constant every journal has carried.
    params = {"implicit_zero": True, "n_history": len(policies)}
    remaining: set[Hashable] = {provider.provider_id for provider in population}
    last_tolerated: dict[Hashable, float] = {
        provider.provider_id: 0.0 for provider in population
    }
    departures: dict[Hashable, float] = {}
    with pinned_journal(
        journal_path,
        "forecast",
        population,
        policies,
        params,
        n_history=len(policies),
    ) as journal:
        n_recorded = 0 if journal is None else journal.n_steps
        if n_recorded:
            state = journal.payloads()[-1]
            remaining = set(state["remaining"])
            last_tolerated = dict(state["last_tolerated"])
            departures = dict(state["departures"])
        # A provider's severity and default verdict depend only on their
        # own preferences and threshold, never on who else is present —
        # so the whole history is evaluated against the *full* population
        # through the batch engine (consecutive deployed policies usually
        # share most columns, which its delta path exploits), and the
        # departure bookkeeping replays over the resulting arrays.
        engine = BatchViolationEngine(population)
        for index in range(n_recorded, len(policies)):
            if not remaining:
                break
            report = engine.evaluate(policies[index])
            apply_policy_observation(report, remaining, last_tolerated, departures)
            if journal is not None:
                checkpoint(
                    journal,
                    {
                        "index": index,
                        "remaining": sorted(remaining, key=repr),
                        "last_tolerated": _pairs(last_tolerated),
                        "departures": _pairs(departures),
                    },
                    "forecast.observe",
                )
    return observations_from_state(population, last_tolerated, departures)
