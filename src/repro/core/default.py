"""Data-provider default (Section 7, Definition 4).

A provider defaults — stops contributing data — when their accumulated
severity exceeds a personal tolerance: ``default_i = 1`` iff
``Violation_i > v_i``.  The inequality is *strict* as printed in the
paper; the worked example depends on it (Bob's severity of 80 against a
threshold of 100 keeps him in the system).  :class:`DefaultModel` carries
the thresholds and exposes a ``strict`` switch so the threshold-semantics
ablation can quantify what ``>=`` would change.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from typing import TYPE_CHECKING, Hashable

from .._validation import check_real
from ..exceptions import ValidationError
from .policy import HousePolicy
from .preferences import ProviderPreferences
from .sensitivity import SensitivityModel
from .severity import provider_violation

if TYPE_CHECKING:
    from .population import Provider


def provider_default(violation: float, threshold: float, *, strict: bool = True) -> int:
    """Definition 4: ``default_i`` given ``Violation_i`` and ``v_i``.

    Parameters
    ----------
    violation:
        The provider's accumulated severity ``Violation_i`` (Eq. 15).
    threshold:
        The provider's tolerance ``v_i``.
    strict:
        With the paper's strict inequality (default), the provider defaults
        only when severity strictly exceeds the threshold.
    """
    violation = check_real(violation, "violation", minimum=0.0)
    threshold = check_real(threshold, "threshold", minimum=0.0)
    if strict:
        return 1 if violation > threshold else 0
    return 1 if violation >= threshold else 0


class DefaultModel:
    """Per-provider default thresholds ``v_i`` plus evaluation helpers.

    Parameters
    ----------
    thresholds:
        Map from provider id to tolerance ``v_i``.  Providers absent from
        the map use *default_threshold*.
    default_threshold:
        Tolerance for unlisted providers.  Defaults to ``inf`` — an
        undescribed provider never defaults, which is the conservative
        reading of "we do not know their threshold".
    strict:
        Threshold semantics (see :func:`provider_default`).
    """

    __slots__ = ("_thresholds", "_default_threshold", "_strict")

    def __init__(
        self,
        thresholds: Mapping[Hashable, float] | None = None,
        *,
        default_threshold: float = math.inf,
        strict: bool = True,
    ) -> None:
        self._thresholds: dict[Hashable, float] = {}
        for provider_id, value in (thresholds or {}).items():
            self._thresholds[provider_id] = check_real(
                value, f"threshold[{provider_id!r}]", minimum=0.0
            )
        if default_threshold != math.inf:
            default_threshold = check_real(
                default_threshold, "default_threshold", minimum=0.0
            )
        self._default_threshold = default_threshold
        if not isinstance(strict, bool):
            raise ValidationError("strict must be a bool")
        self._strict = strict

    @classmethod
    def from_providers(
        cls, providers: Iterable[Provider], *, strict: bool = True
    ) -> "DefaultModel":
        """The thresholds ``v_i`` that *providers* carry.

        A provider whose threshold is ``inf`` (never defaults) is left to
        the default threshold, which is ``inf`` too.
        """
        return cls(
            {
                p.provider_id: p.threshold
                for p in providers
                if p.threshold != math.inf
            },
            strict=strict,
        )

    @property
    def strict(self) -> bool:
        """Whether the strict inequality of Definition 4 is used."""
        return self._strict

    @property
    def default_threshold(self) -> float:
        """Tolerance applied to providers without an explicit threshold."""
        return self._default_threshold

    def threshold(self, provider_id: Hashable) -> float:
        """``v_i`` for *provider_id*."""
        return self._thresholds.get(provider_id, self._default_threshold)

    def known_providers(self) -> frozenset[Hashable]:
        """Providers with an explicit threshold."""
        return frozenset(self._thresholds)

    def defaults(self, provider_id: Hashable, violation: float) -> int:
        """``default_i`` for one provider given their severity."""
        return provider_default(
            violation, self.threshold(provider_id), strict=self._strict
        )

    def evaluate(
        self,
        population: Iterable[ProviderPreferences],
        policy: HousePolicy,
        sensitivities: SensitivityModel | None = None,
        *,
        implicit_zero: bool = True,
    ) -> dict[Hashable, int]:
        """``default_i`` for every provider in *population* under *policy*."""
        outcomes: dict[Hashable, int] = {}
        for preferences in population:
            violation = provider_violation(
                preferences, policy, sensitivities, implicit_zero=implicit_zero
            )
            outcomes[preferences.provider_id] = self.defaults(
                preferences.provider_id, violation
            )
        return outcomes

    def with_threshold(
        self, provider_id: Hashable, threshold: float
    ) -> "DefaultModel":
        """A new model with one threshold added or replaced."""
        thresholds = dict(self._thresholds)
        thresholds[provider_id] = threshold
        return DefaultModel(
            thresholds,
            default_threshold=self._default_threshold,
            strict=self._strict,
        )

    def with_strictness(self, strict: bool) -> "DefaultModel":
        """A copy with different threshold semantics (for the ablation)."""
        return DefaultModel(
            dict(self._thresholds),
            default_threshold=self._default_threshold,
            strict=strict,
        )
