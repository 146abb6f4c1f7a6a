"""Provider privacy preferences (Section 4, Eqs. 5-6) and the
implicit-zero-tuple rule (Section 5).

``ProviderPref_i`` is the set of ``<i, a, p>`` triples for one provider;
Eq. 6's restriction to a datum's attribute is
:meth:`ProviderPreferences.for_attribute`.

The paper's implicit rule (directly after Definition 1): when the house
uses a purpose the provider never expressed a preference for on an
attribute the provider supplied, the provider is assumed to prefer to
reveal nothing — the tuple ``<i, a, pr, 0, 0, 0>`` is added.
:func:`effective_preferences` materialises that completion against a given
house policy so the violation indicator and the severity measure both see
identical semantics.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import Hashable

from ..exceptions import ValidationError
from .policy import HousePolicy
from .tuples import PreferenceEntry, PrivacyTuple, check_attributed_tuple

#: Trusted :class:`PreferenceEntry` construction: the fields' slot
#: setters, which skip the frozen ``__setattr__`` and ``__post_init__``.
_set_provider_id = PreferenceEntry.__dict__["provider_id"].__set__
_set_attribute = PreferenceEntry.__dict__["attribute"].__set__
_set_tuple = PreferenceEntry.__dict__["tuple"].__set__


class ProviderPreferences:
    """All privacy preferences of one data provider (Eq. 5).

    Parameters
    ----------
    provider_id:
        The provider's identifier (any hashable).
    entries:
        :class:`PreferenceEntry` objects or ``(attribute, PrivacyTuple)``
        pairs; pairs are completed with *provider_id*.  Entries carrying a
        different ``provider_id`` are rejected — a preference set speaks for
        exactly one provider.
    attributes_provided:
        The attributes this provider actually supplied data for.  Defaults
        to the attributes mentioned in *entries*.  The implicit-zero rule
        applies only to supplied attributes: a policy on data the provider
        never gave cannot violate them.
    """

    __slots__ = ("_provider_id", "_entries", "_by_attribute", "_attributes_provided")

    def __init__(
        self,
        provider_id: Hashable,
        entries: Iterable[PreferenceEntry | tuple[str, PrivacyTuple]] = (),
        *,
        attributes_provided: Iterable[str] | None = None,
    ) -> None:
        if provider_id is None:
            raise ValidationError("provider_id must not be None")
        pairs: list[tuple[str, PrivacyTuple]] = []
        for entry in entries:
            if isinstance(entry, tuple):
                attribute, privacy_tuple = entry
                check_attributed_tuple(attribute, privacy_tuple)
                pairs.append((attribute, privacy_tuple))
                continue
            if not isinstance(entry, PreferenceEntry):
                raise ValidationError(
                    f"preference entries must be PreferenceEntry or "
                    f"(attribute, PrivacyTuple) pairs, got {type(entry).__name__}"
                )
            if entry.provider_id != provider_id:
                raise ValidationError(
                    f"entry provider {entry.provider_id!r} does not match "
                    f"preference-set provider {provider_id!r}"
                )
            pairs.append((entry.attribute, entry.tuple))
        self._fill(provider_id, pairs, attributes_provided)

    @classmethod
    def _from_pairs(
        cls,
        provider_id: Hashable,
        pairs: Iterable[tuple[str, PrivacyTuple]],
        attributes_provided: Iterable[str] | None = None,
    ) -> "ProviderPreferences":
        """The internal constructor, for inputs validated by the caller.

        *provider_id* is not None and every pair is a non-empty attribute
        string with a validated :class:`PrivacyTuple`; the
        :class:`PreferenceEntry` objects are built without checking them
        again.  Duplicate pairs are dropped, entries are grouped by
        attribute, and *attributes_provided* must cover them, exactly as
        in the public constructor, which ends here after validating.
        The document parser and the population generator call it
        directly.
        """
        preferences = cls.__new__(cls)
        preferences._fill(provider_id, pairs, attributes_provided)
        return preferences

    def _fill(
        self,
        provider_id: Hashable,
        pairs: Iterable[tuple[str, PrivacyTuple]],
        attributes_provided: Iterable[str] | None,
    ) -> None:
        entries: list[PreferenceEntry] = []
        by_attribute: dict[str, list[PreferenceEntry]] = {}
        new_entry = PreferenceEntry.__new__
        # dict.fromkeys drops duplicate pairs, keeping the first of each.
        for attribute, privacy_tuple in dict.fromkeys(pairs):
            entry = new_entry(PreferenceEntry)
            _set_provider_id(entry, provider_id)
            _set_attribute(entry, attribute)
            _set_tuple(entry, privacy_tuple)
            entries.append(entry)
            group = by_attribute.get(attribute)
            if group is None:
                by_attribute[attribute] = [entry]
            else:
                group.append(entry)
        self._provider_id = provider_id
        self._entries = tuple(entries)
        self._by_attribute = {
            attribute: tuple(group) for attribute, group in by_attribute.items()
        }
        if attributes_provided is None:
            self._attributes_provided = frozenset(by_attribute)
        else:
            provided = frozenset(attributes_provided)
            missing = by_attribute.keys() - provided
            if missing:
                raise ValidationError(
                    f"preferences mention attributes not in "
                    f"attributes_provided: {sorted(missing)}"
                )
            self._attributes_provided = provided

    @property
    def provider_id(self) -> Hashable:
        """The provider this preference set belongs to."""
        return self._provider_id

    @property
    def entries(self) -> tuple[PreferenceEntry, ...]:
        """All explicit preference entries, in insertion order."""
        return self._entries

    @property
    def attributes_provided(self) -> frozenset[str]:
        """The attributes the provider supplied data for."""
        return self._attributes_provided

    def __iter__(self) -> Iterator[PreferenceEntry]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProviderPreferences):
            return NotImplemented
        return (
            self._provider_id == other._provider_id
            and frozenset(self._entries) == frozenset(other._entries)
            and self._attributes_provided == other._attributes_provided
        )

    def __hash__(self) -> int:
        return hash(
            (self._provider_id, frozenset(self._entries), self._attributes_provided)
        )

    def __repr__(self) -> str:
        return (
            f"ProviderPreferences({self._provider_id!r}, "
            f"{len(self._entries)} entries)"
        )

    def attributes(self) -> tuple[str, ...]:
        """Attributes with at least one explicit preference, sorted."""
        return tuple(sorted(self._by_attribute))

    def for_attribute(self, attribute: str) -> tuple[PreferenceEntry, ...]:
        """Equation 6: the restriction ``ProviderPref_i^j``."""
        return self._by_attribute.get(attribute, ())

    def purposes_for(self, attribute: str) -> frozenset[str]:
        """Purposes the provider explicitly covered for *attribute*."""
        return frozenset(e.purpose for e in self.for_attribute(attribute))

    def with_entries(
        self, extra: Iterable[PreferenceEntry | tuple[str, PrivacyTuple]]
    ) -> "ProviderPreferences":
        """A new preference set with *extra* entries appended."""
        extra = list(extra)  # read twice below; a generator only once
        return ProviderPreferences(
            self._provider_id,
            list(self._entries) + extra,
            attributes_provided=self._attributes_provided
            | {
                e.attribute if isinstance(e, PreferenceEntry) else e[0]
                for e in extra
            },
        )


def effective_preferences(
    preferences: ProviderPreferences,
    policy: HousePolicy,
    *,
    implicit_zero: bool = True,
) -> ProviderPreferences:
    """Complete *preferences* with implicit zero tuples against *policy*.

    For every policy entry ``<a, p'>`` such that the provider supplied data
    for attribute ``a`` but expressed no preference with purpose ``p'[Pr]``
    on ``a``, add the paper's implicit tuple ``<i, a, p'[Pr], 0, 0, 0>``.

    With ``implicit_zero=False`` the preferences are returned unchanged —
    used by tests and ablations to show how silently *ignoring* unexpected
    purposes under-counts violations.
    """
    if not implicit_zero:
        return preferences
    provided = preferences.attributes_provided
    covered = {
        (entry.attribute, entry.tuple.purpose) for entry in preferences.entries
    }
    additions: list[tuple[str, PrivacyTuple]] = []
    for entry in policy:
        attribute = entry.attribute
        key = (attribute, entry.tuple.purpose)
        if attribute not in provided or key in covered:
            continue
        covered.add(key)
        additions.append((attribute, PrivacyTuple.zero(key[1])))
    if not additions:
        return preferences
    return ProviderPreferences._from_pairs(
        preferences.provider_id,
        [(entry.attribute, entry.tuple) for entry in preferences.entries]
        + additions,
        provided,
    )
