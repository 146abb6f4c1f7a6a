"""Privacy tuples and the policy / preference entry types.

Section 4 of the paper defines the set of all privacy tuples as the cross
product ``P = Pr x V x G x R`` (Eq. 1).  A house policy is a set of pairs
``<a, p>`` with ``a`` an attribute and ``p`` a privacy tuple (Eq. 2); a
provider preference is a triple ``<i, a, p>`` (Eq. 5).

The ordered dimensions carry integer ranks (Section 6.2); purpose is a
string compared for equality.  ``p[dim]`` in the paper's notation becomes
``tuple_.value(dim)`` here (also available via subscripting).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from .._validation import check_int, check_non_empty_str
from ..exceptions import ValidationError
from .dimensions import Dimension, ORDERED_DIMENSIONS


@dataclass(frozen=True, slots=True)
class PrivacyTuple:
    """One point ``p`` in the privacy space ``Pr x V x G x R``.

    ``visibility``, ``granularity`` and ``retention`` are integer ranks in
    their respective ordered domains — larger means more privacy exposure.
    ``purpose`` is the categorical purpose name.

    The tuple is immutable; derive adjusted tuples via :meth:`replace` or
    :meth:`shifted`.
    """

    purpose: str
    visibility: int
    granularity: int
    retention: int

    def __post_init__(self) -> None:
        check_non_empty_str(self.purpose, "purpose")
        check_int(self.visibility, "visibility", minimum=0)
        check_int(self.granularity, "granularity", minimum=0)
        check_int(self.retention, "retention", minimum=0)

    def value(self, dimension: Dimension) -> int | str:
        """The paper's ``p[dim]``: this tuple's value along *dimension*."""
        if dimension is Dimension.PURPOSE:
            return self.purpose
        return getattr(self, dimension.value)

    def __getitem__(self, dimension: Dimension) -> int | str:
        return self.value(dimension)

    def rank(self, dimension: Dimension) -> int:
        """The integer rank along an *ordered* dimension.

        Raises
        ------
        ValidationError
            If called with :attr:`Dimension.PURPOSE`.
        """
        if not dimension.is_ordered:
            raise ValidationError("purpose has no rank; it is categorical")
        return getattr(self, dimension.value)

    def replace(
        self,
        *,
        purpose: str | None = None,
        visibility: int | None = None,
        granularity: int | None = None,
        retention: int | None = None,
    ) -> "PrivacyTuple":
        """A copy with the given components substituted."""
        return PrivacyTuple(
            purpose=self.purpose if purpose is None else purpose,
            visibility=self.visibility if visibility is None else visibility,
            granularity=self.granularity if granularity is None else granularity,
            retention=self.retention if retention is None else retention,
        )

    def shifted(self, dimension: Dimension, delta: int) -> "PrivacyTuple":
        """A copy with the rank along *dimension* moved by *delta*.

        The result is floored at 0 (ranks are non-negative); widening
        operators that must respect a ladder's top clamp separately using
        the domain.
        """
        if not dimension.is_ordered:
            raise ValidationError("cannot shift along the purpose dimension")
        current = self.rank(dimension)
        return self.replace(**{dimension.value: max(0, current + delta)})

    def dominates(self, other: "PrivacyTuple") -> bool:
        """True when this tuple is at least as exposed as *other* everywhere.

        Requires equal purposes; compares all three ordered dimensions with
        ``>=``.  This is the box-containment relation behind Figure 1: a
        policy tuple that the preference tuple dominates sits inside the
        preference's bounding box, i.e. no violation.
        """
        if self.purpose != other.purpose:
            return False
        return all(
            self.rank(dim) >= other.rank(dim) for dim in ORDERED_DIMENSIONS
        )

    def as_dict(self) -> dict[str, int | str]:
        """A plain-dict rendering (used by serializers and the storage layer)."""
        return {
            "purpose": self.purpose,
            "visibility": self.visibility,
            "granularity": self.granularity,
            "retention": self.retention,
        }

    @classmethod
    def zero(cls, purpose: str) -> "PrivacyTuple":
        """The implicit "reveal nothing" tuple ``<pr, 0, 0, 0>``.

        The paper adds ``<i, a, pr, 0, 0, 0>`` to a provider's preferences
        for any house purpose the provider never mentioned (Section 5).
        """
        return cls(purpose=purpose, visibility=0, granularity=0, retention=0)

    def __str__(self) -> str:
        return (
            f"<{self.purpose}, V={self.visibility}, "
            f"G={self.granularity}, R={self.retention}>"
        )


@dataclass(frozen=True, slots=True)
class PolicyEntry:
    """One house-policy element ``<a, p>`` (Eq. 2)."""

    attribute: str
    tuple: PrivacyTuple

    def __post_init__(self) -> None:
        check_non_empty_str(self.attribute, "attribute")
        if not isinstance(self.tuple, PrivacyTuple):
            raise ValidationError(
                f"tuple must be a PrivacyTuple, got {type(self.tuple).__name__}"
            )

    @property
    def purpose(self) -> str:
        """The purpose of the embedded privacy tuple."""
        return self.tuple.purpose

    def __str__(self) -> str:
        return f"<{self.attribute}, {self.tuple}>"


@dataclass(frozen=True, slots=True)
class PreferenceEntry:
    """One provider-preference element ``<i, a, p>`` (Eq. 5)."""

    provider_id: Hashable
    attribute: str
    tuple: PrivacyTuple

    def __post_init__(self) -> None:
        if self.provider_id is None:
            raise ValidationError("provider_id must not be None")
        check_non_empty_str(self.attribute, "attribute")
        if not isinstance(self.tuple, PrivacyTuple):
            raise ValidationError(
                f"tuple must be a PrivacyTuple, got {type(self.tuple).__name__}"
            )

    @property
    def purpose(self) -> str:
        """The purpose of the embedded privacy tuple."""
        return self.tuple.purpose

    def __str__(self) -> str:
        return f"<{self.provider_id}, {self.attribute}, {self.tuple}>"
