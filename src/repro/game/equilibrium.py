"""The iterated widening game and its stopping point.

Round structure:

0. Round 0 evaluates the base policy over the full population (by
   Section 9's setup it causes no defaults when scenarios are anchored).
1. Each subsequent round, the house strategy proposes a widening step (or
   stops); the policy widens; providers whose accumulated severity now
   exceeds their threshold default and permanently leave; the house
   collects ``n_remaining x (U + T x round)``.

The game ends when the strategy stops or the population empties.  The
trace records every round; :meth:`GameTrace.equilibrium_round` is the
round after which the realised play never improved again — under the
greedy strategy this is the myopic stopping point, and the gap between
its utility and the best row of a full sweep measures the cost of myopia
(benchmarked as an ablation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from .._validation import check_real
from ..core.policy import HousePolicy
from ..core.population import Population
from ..exceptions import GameError
from ..obs import active_observer
from ..perf import BatchViolationEngine
from ..simulation.widening import policy_delta_columns, widen
from ..taxonomy.builder import Taxonomy
from .players import HouseStrategy


@dataclass(frozen=True, slots=True)
class GameRound:
    """One realised round of the widening game."""

    round_index: int
    policy_name: str
    n_start: int
    n_defaulted: int
    n_remaining: int
    violation_probability: float
    utility: float
    defaulted_providers: tuple[Hashable, ...]


@dataclass(frozen=True)
class GameTrace:
    """The full realised play."""

    rounds: tuple[GameRound, ...]
    stopped_by_strategy: bool

    @property
    def final_round(self) -> GameRound:
        """The last realised round."""
        if not self.rounds:
            raise GameError("empty game trace")
        return self.rounds[-1]

    def total_defaults(self) -> int:
        """Providers lost across the whole play."""
        return sum(r.n_defaulted for r in self.rounds)

    def peak_utility_round(self) -> GameRound:
        """The round with the highest realised utility."""
        if not self.rounds:
            raise GameError("empty game trace")
        return max(self.rounds, key=lambda r: (r.utility, -r.round_index))

    def equilibrium_round(self) -> GameRound:
        """The stopping point: the last round that improved on its past.

        Formally: the latest round whose utility equals the running
        maximum.  After it, continued widening never paid again within the
        realised play.
        """
        if not self.rounds:
            raise GameError("empty game trace")
        best = self.rounds[0]
        for game_round in self.rounds[1:]:
            if game_round.utility >= best.utility:
                best = game_round
        return best


def play_widening_game(
    population: Population,
    base_policy: HousePolicy,
    taxonomy: Taxonomy,
    strategy: HouseStrategy,
    *,
    per_provider_utility: float = 1.0,
    extra_utility_per_round: float = 0.25,
) -> GameTrace:
    """Play the iterated widening game to completion."""
    check_real(per_provider_utility, "per_provider_utility", minimum=0.0)
    check_real(extra_utility_per_round, "extra_utility_per_round", minimum=0.0)
    rounds: list[GameRound] = []
    current_policy = HousePolicy(
        base_policy.entries, name=f"{base_policy.name}@g0"
    )
    round_index = 0
    stopped_by_strategy = False
    # One engine for the whole game: defaults are tombstoned in place, so
    # the single compilation survives every round.  Strategies that
    # revisit a policy (or widen within a single column) hit the batch
    # engine's cache and delta paths.
    engine = BatchViolationEngine(population)
    n_remaining = len(population)
    while n_remaining > 0:
        report = engine.evaluate(current_policy)
        defaulted = report.defaulted_ids()
        n_start = report.n_providers
        n_remaining = n_start - len(defaulted)
        utility = n_remaining * (
            per_provider_utility + extra_utility_per_round * round_index
        )
        rounds.append(
            GameRound(
                round_index=round_index,
                policy_name=current_policy.name,
                n_start=n_start,
                n_defaulted=len(defaulted),
                n_remaining=n_remaining,
                violation_probability=report.violation_probability,
                utility=utility,
                defaulted_providers=defaulted,
            )
        )
        if defaulted:
            engine.remove(defaulted)
        next_step = strategy.propose(rounds)
        if next_step is None:
            stopped_by_strategy = True
            break
        round_index += 1
        previous_policy = current_policy
        current_policy = widen(
            current_policy,
            next_step,
            taxonomy,
            name=f"{base_policy.name}@g{round_index}",
        )
        obs = active_observer()
        if obs is not None:
            obs.inc(
                "game.policy_columns_changed",
                len(policy_delta_columns(previous_policy, current_policy)),
            )
    return GameTrace(rounds=tuple(rounds), stopped_by_strategy=stopped_by_strategy)
