"""Provider populations: the "N data providers" of Definitions 2 and 5.

A :class:`Provider` bundles everything the model knows about one data
provider: preferences (Eq. 5), per-datum sensitivities (Eq. 11), and the
default threshold ``v_i`` (Definition 4).  A :class:`Population` is an
ordered, id-unique collection of providers plus the shared attribute
sensitivity vector ``Sigma`` (Eq. 10), and can hand the core functions the
pieces they expect (:meth:`Population.sensitivity_model`,
:meth:`Population.default_model`).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from typing import Hashable

from .._validation import check_real
from ..exceptions import UnknownProviderError, ValidationError
from .default import DefaultModel
from .preferences import ProviderPreferences
from .sensitivity import (
    AttributeSensitivities,
    DimensionSensitivity,
    ProviderSensitivity,
    SensitivityModel,
)


@dataclass(frozen=True)
class Provider:
    """One data provider: preferences, sensitivities, and tolerance.

    Parameters
    ----------
    preferences:
        The provider's explicit privacy preferences.
    sensitivity:
        Per-attribute :class:`DimensionSensitivity` records (``sigma_i``).
        Attributes not listed are neutral.
    threshold:
        Default tolerance ``v_i``; ``inf`` means "never defaults".
    segment:
        Optional population-segment label (e.g. a Westin segment) carried
        through to reports.
    """

    preferences: ProviderPreferences
    sensitivity: Mapping[str, DimensionSensitivity] = field(default_factory=dict)
    threshold: float = math.inf
    segment: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.preferences, ProviderPreferences):
            raise ValidationError(
                "preferences must be a ProviderPreferences, got "
                f"{type(self.preferences).__name__}"
            )
        if self.threshold != math.inf:
            check_real(self.threshold, "threshold", minimum=0.0)
        object.__setattr__(self, "sensitivity", dict(self.sensitivity))

    @property
    def provider_id(self) -> Hashable:
        """The provider's identifier (taken from the preference set)."""
        return self.preferences.provider_id

    def provider_sensitivity(self) -> ProviderSensitivity:
        """``sigma_i`` as the core sensitivity record."""
        return ProviderSensitivity(
            provider_id=self.provider_id, per_attribute=self.sensitivity
        )


class Population:
    """An id-unique, ordered collection of providers plus ``Sigma``.

    Parameters
    ----------
    providers:
        The providers.  Ids must be unique.
    attribute_sensitivities:
        The shared attribute sensitivity vector ``Sigma`` (Eq. 10);
        defaults to neutral.
    """

    __slots__ = ("_providers", "_by_id", "_attribute_sensitivities")

    def __init__(
        self,
        providers: Iterable[Provider],
        attribute_sensitivities: AttributeSensitivities | Mapping[str, float] | None = None,
    ) -> None:
        provider_list = list(providers)
        by_id: dict[Hashable, Provider] = {}
        for provider in provider_list:
            if not isinstance(provider, Provider):
                raise ValidationError(
                    f"population members must be Provider, got "
                    f"{type(provider).__name__}"
                )
            if provider.provider_id in by_id:
                raise ValidationError(
                    f"duplicate provider id {provider.provider_id!r}"
                )
            by_id[provider.provider_id] = provider
        self._providers = tuple(provider_list)
        self._by_id = by_id
        if attribute_sensitivities is None:
            attribute_sensitivities = AttributeSensitivities()
        elif not isinstance(attribute_sensitivities, AttributeSensitivities):
            attribute_sensitivities = AttributeSensitivities(attribute_sensitivities)
        self._attribute_sensitivities = attribute_sensitivities

    @property
    def providers(self) -> tuple[Provider, ...]:
        """All providers, in insertion order."""
        return self._providers

    @property
    def attribute_sensitivities(self) -> AttributeSensitivities:
        """The shared ``Sigma`` vector."""
        return self._attribute_sensitivities

    def __len__(self) -> int:
        return len(self._providers)

    def __iter__(self) -> Iterator[Provider]:
        return iter(self._providers)

    def __contains__(self, provider_id: object) -> bool:
        return provider_id in self._by_id

    def __repr__(self) -> str:
        return f"Population({len(self._providers)} providers)"

    def ids(self) -> tuple[Hashable, ...]:
        """Provider ids in insertion order."""
        return tuple(p.provider_id for p in self._providers)

    def get(self, provider_id: Hashable) -> Provider:
        """The provider with *provider_id*.

        Raises
        ------
        UnknownProviderError
            If no such provider exists.
        """
        try:
            return self._by_id[provider_id]
        except KeyError:
            raise UnknownProviderError(provider_id) from None

    def preference_sets(self) -> tuple[ProviderPreferences, ...]:
        """Every provider's preference set, in population order."""
        return tuple(p.preferences for p in self._providers)

    def sensitivity_model(self) -> SensitivityModel:
        """The population's full :class:`SensitivityModel` (Eq. 10)."""
        return SensitivityModel(
            self._attribute_sensitivities,
            {
                p.provider_id: p.provider_sensitivity()
                for p in self._providers
                if p.sensitivity
            },
        )

    def default_model(self, *, strict: bool = True) -> DefaultModel:
        """The population's :class:`DefaultModel` from per-provider thresholds."""
        return DefaultModel(
            {
                p.provider_id: p.threshold
                for p in self._providers
                if p.threshold != math.inf
            },
            strict=strict,
        )

    def without(self, provider_ids: Iterable[Hashable]) -> "Population":
        """A new population with the given providers removed.

        Used by the multi-round dynamics: defaulted providers leave and the
        remaining population is re-evaluated under the next policy.
        """
        excluded = set(provider_ids)
        unknown = excluded - set(self._by_id)
        if unknown:
            raise UnknownProviderError(sorted(unknown, key=repr)[0])
        return Population(
            (p for p in self._providers if p.provider_id not in excluded),
            self._attribute_sensitivities,
        )

    def extended(self, providers: Iterable[Provider]) -> "Population":
        """A new population with the given providers appended at the end.

        :meth:`repro.perf.batch.BatchViolationEngine.append` produces
        exactly this population's compiled form: survivors first, in
        order, new providers after them.  Duplicate ids are rejected by
        the constructor.
        """
        return Population(
            (*self._providers, *providers), self._attribute_sensitivities
        )

    def updated(self, providers: Iterable[Provider]) -> "Population":
        """A new population with the given providers replaced in place.

        Each provider substitutes the existing one with the same id —
        order is preserved, which is what keeps
        :meth:`repro.perf.batch.BatchViolationEngine.update` bit-for-bit
        against a fresh compile.
        """
        replacements = {}
        for provider in providers:
            if not isinstance(provider, Provider):
                raise ValidationError(
                    f"population members must be Provider, got "
                    f"{type(provider).__name__}"
                )
            if provider.provider_id not in self._by_id:
                raise UnknownProviderError(provider.provider_id)
            replacements[provider.provider_id] = provider
        return Population(
            (replacements.get(p.provider_id, p) for p in self._providers),
            self._attribute_sensitivities,
        )

    def subset(self, provider_ids: Iterable[Hashable]) -> "Population":
        """A new population restricted to the given providers (order kept)."""
        wanted = set(provider_ids)
        unknown = wanted - set(self._by_id)
        if unknown:
            raise UnknownProviderError(sorted(unknown, key=repr)[0])
        return Population(
            (p for p in self._providers if p.provider_id in wanted),
            self._attribute_sensitivities,
        )

    def with_attribute_sensitivities(
        self, attribute_sensitivities: AttributeSensitivities | Mapping[str, float]
    ) -> "Population":
        """A copy with a different ``Sigma`` vector."""
        return Population(self._providers, attribute_sensitivities)
