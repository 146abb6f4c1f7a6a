"""The alpha-PPDB (Definition 3): ``P(W) <= alpha``.

A database is an *alpha privacy-preserving database* when the probability
that a randomly selected provider's privacy is violated does not exceed a
threshold ``alpha``.  :func:`certify_alpha_ppdb` produces a structured,
deterministic certificate — the artifact Section 10 envisions a house
publishing so providers can audit compliance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from .._validation import check_probability
from .policy import HousePolicy
from .population import Population
from .probability import violation_probability
from .violation import violation_indicator


@dataclass(frozen=True, slots=True)
class PPDBCertificate:
    """The outcome of an alpha-PPDB check, with the evidence attached.

    ``violated_providers`` lists the ids with ``w_i = 1`` so an auditor can
    recompute ``violation_probability = len(violated_providers) / n_providers``
    and verify ``satisfied == (violation_probability <= alpha)``.
    """

    alpha: float
    violation_probability: float
    satisfied: bool
    n_providers: int
    violated_providers: tuple[Hashable, ...]
    policy_name: str

    @property
    def margin(self) -> float:
        """``alpha - P(W)``: positive slack when satisfied, negative excess otherwise."""
        return self.alpha - self.violation_probability

    def __str__(self) -> str:
        verdict = "SATISFIED" if self.satisfied else "VIOLATED"
        return (
            f"alpha-PPDB[{self.policy_name}]: P(W)={self.violation_probability:.4f} "
            f"vs alpha={self.alpha:.4f} -> {verdict} "
            f"({len(self.violated_providers)}/{self.n_providers} providers violated)"
        )


def is_alpha_ppdb(
    population: Population,
    policy: HousePolicy,
    alpha: float,
    *,
    implicit_zero: bool = True,
) -> bool:
    """Definition 3: True when ``P(W) <= alpha``."""
    alpha = check_probability(alpha, "alpha")
    return (
        violation_probability(population, policy, implicit_zero=implicit_zero)
        <= alpha
    )


def certify_alpha_ppdb(
    population: Population,
    policy: HousePolicy,
    alpha: float,
    *,
    implicit_zero: bool = True,
) -> PPDBCertificate:
    """Check Definition 3 and return the full certificate.

    The violation indicators are re-derived from each provider's
    preferences; ``w_i`` is purely geometric (Definition 1), so no
    sensitivity or default model enters the computation.
    """
    alpha = check_probability(alpha, "alpha")
    n = len(population)
    if n == 0:
        # An empty database trivially violates nobody.
        return PPDBCertificate(
            alpha=alpha,
            violation_probability=0.0,
            satisfied=True,
            n_providers=0,
            violated_providers=(),
            policy_name=policy.name,
        )
    violated: list[Hashable] = []
    for provider in population:
        if violation_indicator(
            provider.preferences, policy, implicit_zero=implicit_zero
        ):
            violated.append(provider.provider_id)
    p_w = len(violated) / n
    return PPDBCertificate(
        alpha=alpha,
        violation_probability=p_w,
        satisfied=p_w <= alpha,
        n_providers=n,
        violated_providers=tuple(violated),
        policy_name=policy.name,
    )
