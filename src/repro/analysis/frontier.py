"""The privacy-utility frontier over widening options.

A house choosing among widening levels faces a bi-objective problem:
maximise future utility, minimise the privacy damage (here: the default
probability — the damage that feeds back on the house; ``P(W)`` works
too and is recorded alongside).  The **Pareto frontier** of a widening
sweep is the set of levels not dominated by any other: no alternative is
at least as good on both objectives and strictly better on one.

The frontier is the decision artifact Section 9's analysis builds toward:
everything off the frontier is simply a mistake, and movement *along* it
is the genuine privacy-for-utility trade the house and its providers are
negotiating.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ValidationError
from ..simulation.scenario import ExpansionSweep, SweepRow
from .tables import format_table


@dataclass(frozen=True, slots=True)
class FrontierPoint:
    """One non-dominated widening level."""

    step: int
    utility_future: float
    default_probability: float
    violation_probability: float

    @classmethod
    def of(cls, row: SweepRow) -> "FrontierPoint":
        """Project a sweep row onto the frontier objectives."""
        return cls(
            step=row.step,
            utility_future=row.utility_future,
            default_probability=row.default_probability,
            violation_probability=row.violation_probability,
        )


@dataclass(frozen=True)
class ParetoFrontier:
    """The non-dominated widening levels, ordered by increasing damage."""

    points: tuple[FrontierPoint, ...]
    dominated_steps: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValidationError("a frontier needs at least one point")

    def best_utility(self) -> FrontierPoint:
        """The frontier point with the highest utility."""
        return max(self.points, key=lambda p: (p.utility_future, -p.step))

    def most_private(self) -> FrontierPoint:
        """The frontier point with the least default damage."""
        return min(self.points, key=lambda p: (p.default_probability, p.step))

    def knee(self) -> FrontierPoint:
        """The point of steepest diminishing returns.

        The frontier point maximising *utility gained per unit of damage*
        relative to the most private point — the standard "knee" heuristic
        for picking a single operating point off a frontier.
        """
        anchor = self.most_private()
        best = anchor
        best_slope = 0.0
        for point in self.points:
            damage = point.default_probability - anchor.default_probability
            gain = point.utility_future - anchor.utility_future
            if damage <= 0:
                continue
            slope = gain / damage
            if slope > best_slope:
                best_slope = slope
                best = point
        return best

    def to_text(self) -> str:
        """A fixed-width rendering of the frontier."""
        return format_table(
            ["step", "P(Default)", "P(W)", "U_future"],
            [
                [
                    p.step,
                    round(p.default_probability, 4),
                    round(p.violation_probability, 4),
                    p.utility_future,
                ]
                for p in self.points
            ],
            title="privacy-utility frontier (non-dominated widening levels)",
        )


def _dominates(a: SweepRow, b: SweepRow) -> bool:
    """True when *a* is at least as good as *b* everywhere, better somewhere.

    "Good" = higher future utility, lower default probability.
    """
    at_least_as_good = (
        a.utility_future >= b.utility_future
        and a.default_probability <= b.default_probability
    )
    strictly_better = (
        a.utility_future > b.utility_future
        or a.default_probability < b.default_probability
    )
    return at_least_as_good and strictly_better


def pareto_frontier(sweep: ExpansionSweep) -> ParetoFrontier:
    """Extract the Pareto frontier from a widening sweep."""
    if not sweep.rows:
        raise ValidationError("cannot build a frontier from an empty sweep")
    non_dominated: list[SweepRow] = []
    dominated: list[int] = []
    for candidate in sweep.rows:
        if any(
            _dominates(other, candidate)
            for other in sweep.rows
            if other is not candidate
        ):
            dominated.append(candidate.step)
        else:
            non_dominated.append(candidate)
    non_dominated.sort(key=lambda row: (row.default_probability, row.step))
    return ParetoFrontier(
        points=tuple(FrontierPoint.of(row) for row in non_dominated),
        dominated_steps=tuple(dominated),
    )
