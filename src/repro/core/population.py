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
from itertools import compress
from typing import Hashable

import numpy as np

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

    __slots__ = ("_providers", "_by_id", "_attribute_sensitivities", "_store")

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
        # Set by repro.simulation.population.generate_population and
        # carried by subset / without / with_attribute_sensitivities: the
        # compiled store generation walked and the rows of it that are
        # this population's (None: all of them), so compiling cuts those
        # rows instead of walking the providers.  Opaque here.
        self._store: tuple[object, np.ndarray | None] | None = None

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
        return SensitivityModel.from_providers(
            self._attribute_sensitivities, self._providers
        )

    def default_model(self, *, strict: bool = True) -> DefaultModel:
        """The population's :class:`DefaultModel` from per-provider thresholds."""
        return DefaultModel.from_providers(self._providers, strict=strict)

    def without(self, provider_ids: Iterable[Hashable]) -> "Population":
        """A new population with the given providers removed.

        Used by the multi-round dynamics: defaulted providers leave and the
        remaining population is re-evaluated under the next policy.
        """
        excluded = set(provider_ids)
        unknown = excluded - set(self._by_id)
        if unknown:
            raise UnknownProviderError(sorted(unknown, key=repr)[0])
        return self._select([p.provider_id not in excluded for p in self._providers])

    def subset(self, provider_ids: Iterable[Hashable]) -> "Population":
        """A new population restricted to the given providers (order kept)."""
        wanted = set(provider_ids)
        unknown = wanted - set(self._by_id)
        if unknown:
            raise UnknownProviderError(sorted(unknown, key=repr)[0])
        return self._select([p.provider_id in wanted for p in self._providers])

    def with_attribute_sensitivities(
        self, attribute_sensitivities: AttributeSensitivities | Mapping[str, float]
    ) -> "Population":
        """A copy with a different ``Sigma`` vector."""
        copy = Population(self._providers, attribute_sensitivities)
        copy._store = self._store
        return copy

    def _select(self, keep: list[bool]) -> "Population":
        """The providers where *keep* is true, in order, and their store rows."""
        selected = Population(
            compress(self._providers, keep), self._attribute_sensitivities
        )
        if self._store is not None:
            store, rows = self._store
            picked = np.flatnonzero(keep)
            selected._store = (store, picked if rows is None else rows[picked])
        return selected
