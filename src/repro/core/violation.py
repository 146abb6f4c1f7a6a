"""The violation machinery: Definition 1 and Equations 12-14.

* :func:`diff` — Eq. 12: the one-sided exceedance ``P - p`` when the policy
  value ``P`` is strictly larger than the preference value ``p``, else 0.
* :func:`comp` — Eq. 13: comparability — a preference tuple and a policy
  tuple are comparable iff they concern the same attribute *and* share the
  same purpose.
* :func:`conf` — Eq. 14: the sensitivity-weighted conflict between one
  preference tuple and one policy tuple, summed over the ordered
  dimensions ``{V, G, R}``.
* :func:`violation_indicator` — Definition 1's binary ``w_i``.
* :func:`find_violations` — the explainable version: every
  (preference, policy, dimension) exceedance as a structured
  :class:`ViolationFinding`, from which both ``w_i`` and ``Violation_i``
  can be recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from .._validation import check_int
from .dimensions import Dimension, ORDERED_DIMENSIONS
from .policy import HousePolicy
from .preferences import ProviderPreferences, effective_preferences
from .sensitivity import SensitivityModel
from .tuples import PolicyEntry, PreferenceEntry, PrivacyTuple


def diff(preference_value: int, policy_value: int) -> int:
    """Equation 12: ``diff(p, P) = P - p`` if ``P > p`` else ``0``.

    Only exceedances count; a policy *stricter* than the preference
    contributes nothing (it cannot "repay" a violation elsewhere).
    """
    p = check_int(preference_value, "preference_value")
    capital_p = check_int(policy_value, "policy_value")
    if capital_p > p:
        return capital_p - p
    return 0


def comp(preference: PreferenceEntry, policy: PolicyEntry) -> int:
    """Equation 13: 1 when the tuples are comparable, else 0.

    Comparable means: same attribute and same purpose.  Tuples about
    different attributes, or about the same attribute under different
    purposes, never conflict directly (a missing purpose is handled by the
    implicit-zero completion, not by cross-purpose comparison).
    """
    if preference.attribute != policy.attribute:
        return 0
    if preference.purpose != policy.purpose:
        return 0
    return 1


def exceeded_dimensions(
    preference_tuple: PrivacyTuple, policy_tuple: PrivacyTuple
) -> tuple[Dimension, ...]:
    """The ordered dimensions along which the policy exceeds the preference.

    This is the geometric test of Figure 1: each returned dimension is an
    axis along which the policy's box pokes out of the preference's box.
    Purposes must match for any dimension to be reported (otherwise the
    tuples live in different purpose groups and are incomparable).
    """
    if preference_tuple.purpose != policy_tuple.purpose:
        return ()
    return tuple(
        dim
        for dim in ORDERED_DIMENSIONS
        if policy_tuple.rank(dim) > preference_tuple.rank(dim)
    )


def conf(
    preference: PreferenceEntry,
    policy: PolicyEntry,
    sensitivities: SensitivityModel | None = None,
) -> float:
    """Equation 14: sensitivity-weighted conflict between two tuples.

    ``conf = comp x sum_{dim in {V,G,R}} diff(p[dim], p'[dim])
    x Sigma^a x s_i^a x s_i^a[dim]``.

    With *sensitivities* omitted, every weight is 1 and the result is the
    raw geometric exceedance (the ablation baseline).
    """
    if comp(preference, policy) == 0:
        return 0.0
    model = sensitivities if sensitivities is not None else SensitivityModel.neutral()
    attribute = preference.attribute
    attribute_weight = model.attribute_weight(attribute)
    datum = model.datum(preference.provider_id, attribute)
    total = 0.0
    for dim in ORDERED_DIMENSIONS:
        exceedance = diff(preference.tuple.rank(dim), policy.tuple.rank(dim))
        if exceedance:
            total += (
                exceedance
                * attribute_weight
                * datum.value
                * datum.dimension_weight(dim)
            )
    return total


@dataclass(frozen=True, slots=True)
class ViolationFinding:
    """One dimension-level exceedance, fully attributed.

    ``amount`` is the raw rank exceedance (Eq. 12); ``weighted`` is the
    sensitivity-weighted contribution this exceedance adds to
    ``Violation_i`` (one term of Eq. 14's sum).
    """

    provider_id: Hashable
    attribute: str
    purpose: str
    dimension: Dimension
    preference_value: int
    policy_value: int
    amount: int
    weighted: float
    implicit: bool = False

    def __str__(self) -> str:
        origin = " (implicit zero preference)" if self.implicit else ""
        return (
            f"{self.provider_id}/{self.attribute}@{self.purpose}: "
            f"{self.dimension.symbol} {self.preference_value} -> "
            f"{self.policy_value} (+{self.amount}, weighted "
            f"{self.weighted:g}){origin}"
        )


def find_violations(
    preferences: ProviderPreferences,
    policy: HousePolicy,
    sensitivities: SensitivityModel | None = None,
    *,
    implicit_zero: bool = True,
) -> list[ViolationFinding]:
    """Every dimension-level exceedance of *policy* over *preferences*.

    Applies the implicit-zero completion first (Section 5), then compares
    every comparable (preference, policy) pair along ``{V, G, R}``.

    The findings are the single source of truth: ``w_i`` is
    ``bool(findings)`` and ``Violation_i`` is ``sum(f.weighted)`` — the
    higher-level functions are implemented on top of this one so the binary
    and severity views can never disagree.
    """
    model = sensitivities if sensitivities is not None else SensitivityModel.neutral()
    explicit_keys = {
        (entry.attribute, entry.purpose) for entry in preferences.entries
    }
    completed = effective_preferences(
        preferences, policy, implicit_zero=implicit_zero
    )
    findings: list[ViolationFinding] = []
    for pref in completed.entries:
        attribute = pref.attribute
        purpose = pref.purpose
        pref_tuple = pref.tuple
        attribute_weight = model.attribute_weight(attribute)
        datum = model.datum(pref.provider_id, attribute)
        for pol in policy.for_attribute(attribute):
            if purpose != pol.purpose:
                continue
            pol_tuple = pol.tuple
            for dim in ORDERED_DIMENSIONS:
                amount = diff(pref_tuple.rank(dim), pol_tuple.rank(dim))
                if not amount:
                    continue
                weighted = (
                    amount
                    * attribute_weight
                    * datum.value
                    * datum.dimension_weight(dim)
                )
                findings.append(
                    ViolationFinding(
                        provider_id=pref.provider_id,
                        attribute=attribute,
                        purpose=purpose,
                        dimension=dim,
                        preference_value=pref_tuple.rank(dim),
                        policy_value=pol_tuple.rank(dim),
                        amount=amount,
                        weighted=weighted,
                        implicit=(attribute, purpose) not in explicit_keys,
                    )
                )
    return findings


def violation_indicator(
    preferences: ProviderPreferences,
    policy: HousePolicy,
    *,
    implicit_zero: bool = True,
) -> int:
    """Definition 1: the binary ``w_i``.

    ``w_i = 1`` iff there exist a preference tuple and a policy tuple with
    the same attribute and purpose such that the policy strictly exceeds the
    preference along at least one of ``{V, G, R}``.
    """
    completed = effective_preferences(
        preferences, policy, implicit_zero=implicit_zero
    )
    for pref in completed.entries:
        for pol in policy.for_attribute(pref.attribute):
            if pref.purpose != pol.purpose:
                continue
            if exceeded_dimensions(pref.tuple, pol.tuple):
                return 1
    return 0
