"""Sensitivity factors (Section 6.1, Eqs. 10-11).

The severity of a violation is weighted by three kinds of sensitivity, all
tied to a purpose-specific context:

* ``Sigma^a`` — the social sensitivity of attribute ``a`` (Westin ranks
  health and financial data highest); :class:`AttributeSensitivities`.
* ``s_i^a`` — how sensitive provider ``i`` considers the *value* they
  supplied for ``a`` (a weight deviating from the norm is more sensitive
  than an average one); the ``value`` field of
  :class:`DimensionSensitivity`.
* ``s_i^a[dim]`` — how much provider ``i`` cares about exposure along each
  ordered dimension for that datum; the per-dimension fields of
  :class:`DimensionSensitivity`.

:class:`SensitivityModel` bundles the attribute vector ``Sigma`` with the
per-provider map ``sigma`` and supplies neutral defaults (all ones) for
anything unspecified, so severity degrades gracefully to the raw geometric
exceedance when no survey data is available.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable

from .._validation import check_real
from ..exceptions import ValidationError
from .dimensions import ORDERED_DIMENSIONS, Dimension

if TYPE_CHECKING:
    from .population import Provider

#: The ordered dimensions bound once (see :meth:`PrivacyTuple.rank`).
_VISIBILITY, _GRANULARITY, _RETENTION = ORDERED_DIMENSIONS


@dataclass(frozen=True, slots=True)
class DimensionSensitivity:
    """Equation 11: ``sigma_i^j = <s, s[V], s[G], s[R]>`` for one datum.

    ``value`` is the data-value sensitivity ``s_i^j``; the remaining fields
    weight violations along each ordered dimension.  All weights must be
    non-negative; the neutral element is all ones.
    """

    value: float = 1.0
    visibility: float = 1.0
    granularity: float = 1.0
    retention: float = 1.0

    def __post_init__(self) -> None:
        check_real(self.value, "value", minimum=0.0)
        check_real(self.visibility, "visibility", minimum=0.0)
        check_real(self.granularity, "granularity", minimum=0.0)
        check_real(self.retention, "retention", minimum=0.0)

    def dimension_weight(self, dimension: Dimension) -> float:
        """The paper's ``s_i^a[dim]`` for an ordered dimension."""
        if dimension is _VISIBILITY:
            return float(self.visibility)
        if dimension is _GRANULARITY:
            return float(self.granularity)
        if dimension is _RETENTION:
            return float(self.retention)
        raise ValidationError(
            "purpose has no dimension sensitivity; it is categorical"
        )

    def __getitem__(self, dimension: Dimension) -> float:
        return self.dimension_weight(dimension)

    @classmethod
    def neutral(cls) -> "DimensionSensitivity":
        """The all-ones weighting (severity equals raw exceedance)."""
        return cls()

    @classmethod
    def from_sequence(cls, values: tuple[float, float, float, float]) -> "DimensionSensitivity":
        """Build from the paper's ``<s, s[V], s[G], s[R]>`` ordering.

        Table 1 writes e.g. ``sigma_Ted^Weight = <3, 1, 5, 2>``; this
        constructor accepts exactly that ordering.
        """
        value, visibility, granularity, retention = values
        return cls(
            value=value,
            visibility=visibility,
            granularity=granularity,
            retention=retention,
        )


#: Neutral sensitivity reused wherever nothing was specified.
NEUTRAL_SENSITIVITY = DimensionSensitivity()


@dataclass(frozen=True)
class ProviderSensitivity:
    """Equation 11 aggregated: ``sigma_i`` — one provider's sensitivities.

    Maps attribute name to that datum's :class:`DimensionSensitivity`.
    Attributes absent from the map are treated as neutral (all ones).
    """

    provider_id: Hashable
    per_attribute: Mapping[str, DimensionSensitivity] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.provider_id is None:
            raise ValidationError("provider_id must not be None")
        for attribute, sens in self.per_attribute.items():
            if not isinstance(sens, DimensionSensitivity):
                raise ValidationError(
                    f"sensitivity for attribute {attribute!r} must be a "
                    f"DimensionSensitivity, got {type(sens).__name__}"
                )
        # Freeze the mapping so the dataclass is safely hashable by identity
        # of content.
        object.__setattr__(self, "per_attribute", dict(self.per_attribute))

    def for_attribute(self, attribute: str) -> DimensionSensitivity:
        """``sigma_i^a``, defaulting to neutral when unspecified."""
        return self.per_attribute.get(attribute, NEUTRAL_SENSITIVITY)


class AttributeSensitivities:
    """Equation 10's ``Sigma``: social sensitivity per attribute.

    The paper defines these as integers; we accept non-negative reals so
    calibrated survey weights fit too.  Attributes absent from the map get
    weight 1 (neutral).
    """

    __slots__ = ("_weights",)

    def __init__(self, weights: Mapping[str, float] | None = None) -> None:
        self._weights: dict[str, float] = {}
        for attribute, weight in (weights or {}).items():
            self._weights[attribute] = check_real(
                weight, f"Sigma[{attribute}]", minimum=0.0
            )

    def weight(self, attribute: str) -> float:
        """``Sigma^a`` for *attribute* (1.0 when unspecified)."""
        return self._weights.get(attribute, 1.0)

    def __getitem__(self, attribute: str) -> float:
        return self.weight(attribute)

    # Every attribute has a weight, so there is nothing finite to iterate;
    # without this, iteration would fall back to ``__getitem__(0)``,
    # ``(1)``, ... and never end.  :meth:`as_dict` lists the explicit ones.
    __iter__ = None

    def __contains__(self, attribute: object) -> bool:
        return attribute in self._weights

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AttributeSensitivities):
            return NotImplemented
        return self._weights == other._weights

    def __hash__(self) -> int:
        return hash(frozenset(self._weights.items()))

    def __repr__(self) -> str:
        return f"AttributeSensitivities({self._weights!r})"

    def as_dict(self) -> dict[str, float]:
        """A copy of the explicit weights."""
        return dict(self._weights)


class SensitivityModel:
    """Equation 10: ``Sensitivity = <sigma, Sigma>`` for a whole population.

    Bundles the attribute vector with the per-provider sensitivities and
    answers the composite weight lookups the ``conf`` function needs.
    Missing providers or attributes resolve to neutral weights, so a
    sensitivity model is always total.
    """

    __slots__ = ("_attributes", "_providers")

    def __init__(
        self,
        attributes: AttributeSensitivities | Mapping[str, float] | None = None,
        providers: Mapping[Hashable, ProviderSensitivity] | None = None,
    ) -> None:
        if attributes is None:
            attributes = AttributeSensitivities()
        elif not isinstance(attributes, AttributeSensitivities):
            attributes = AttributeSensitivities(attributes)
        self._attributes = attributes
        self._providers: dict[Hashable, ProviderSensitivity] = {}
        for provider_id, sens in (providers or {}).items():
            if not isinstance(sens, ProviderSensitivity):
                raise ValidationError(
                    f"provider sensitivity for {provider_id!r} must be a "
                    f"ProviderSensitivity, got {type(sens).__name__}"
                )
            if sens.provider_id != provider_id:
                raise ValidationError(
                    f"sensitivity keyed {provider_id!r} carries provider "
                    f"{sens.provider_id!r}"
                )
            self._providers[provider_id] = sens

    @property
    def attributes(self) -> AttributeSensitivities:
        """The ``Sigma`` vector."""
        return self._attributes

    def attribute_weight(self, attribute: str) -> float:
        """``Sigma^a``."""
        return self._attributes.weight(attribute)

    def provider(self, provider_id: Hashable) -> ProviderSensitivity:
        """``sigma_i``, neutral when the provider was never described."""
        existing = self._providers.get(provider_id)
        if existing is not None:
            return existing
        return ProviderSensitivity(provider_id=provider_id)

    def datum(self, provider_id: Hashable, attribute: str) -> DimensionSensitivity:
        """``sigma_i^a`` — the full per-datum sensitivity record."""
        return self.provider(provider_id).for_attribute(attribute)

    def explicit_providers(self) -> dict[Hashable, ProviderSensitivity]:
        """The providers with explicit (non-neutral-by-default) records."""
        return dict(self._providers)

    def with_provider(self, sensitivity: ProviderSensitivity) -> "SensitivityModel":
        """A new model with *sensitivity* added or replaced."""
        providers = dict(self._providers)
        providers[sensitivity.provider_id] = sensitivity
        return SensitivityModel(self._attributes, providers)

    @classmethod
    def from_providers(
        cls,
        attributes: AttributeSensitivities | Mapping[str, float] | None,
        providers: Iterable[Provider],
    ) -> "SensitivityModel":
        """``Sigma`` plus the ``sigma_i`` that *providers* carry.

        A provider without sensitivity records keeps the neutral default.
        """
        return cls(
            attributes,
            {
                p.provider_id: p.provider_sensitivity()
                for p in providers
                if p.sensitivity
            },
        )

    @classmethod
    def neutral(cls) -> "SensitivityModel":
        """A model in which every weight is 1."""
        return cls()
