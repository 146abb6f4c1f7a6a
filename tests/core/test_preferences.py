"""Unit tests for provider preferences and the implicit-zero rule."""

from __future__ import annotations

import pytest

from repro.core import (
    HousePolicy,
    PreferenceEntry,
    PrivacyTuple,
    ProviderPreferences,
    effective_preferences,
)
from repro.exceptions import ValidationError


@pytest.fixture()
def prefs() -> ProviderPreferences:
    return ProviderPreferences(
        "alice",
        [
            ("weight", PrivacyTuple("billing", 2, 2, 2)),
            ("age", PrivacyTuple("billing", 3, 3, 3)),
        ],
    )


class TestConstruction:
    def test_pairs_get_provider_id(self, prefs):
        assert all(e.provider_id == "alice" for e in prefs)

    def test_entry_with_wrong_provider_rejected(self):
        entry = PreferenceEntry("bob", "weight", PrivacyTuple("billing", 1, 1, 1))
        with pytest.raises(ValidationError):
            ProviderPreferences("alice", [entry])

    def test_none_provider_rejected(self):
        with pytest.raises(ValidationError):
            ProviderPreferences(None)

    def test_deduplication(self):
        pair = ("weight", PrivacyTuple("billing", 1, 1, 1))
        prefs = ProviderPreferences("alice", [pair, pair])
        assert len(prefs) == 1

    def test_attributes_provided_defaults_to_mentioned(self, prefs):
        assert prefs.attributes_provided == {"weight", "age"}

    def test_explicit_attributes_provided_superset_ok(self):
        prefs = ProviderPreferences(
            "alice",
            [("weight", PrivacyTuple("billing", 1, 1, 1))],
            attributes_provided=["weight", "height"],
        )
        assert prefs.attributes_provided == {"weight", "height"}

    def test_attributes_provided_must_cover_preferences(self):
        with pytest.raises(ValidationError):
            ProviderPreferences(
                "alice",
                [("weight", PrivacyTuple("billing", 1, 1, 1))],
                attributes_provided=["height"],
            )

    def test_empty_preferences_legal(self):
        prefs = ProviderPreferences("alice")
        assert len(prefs) == 0
        assert prefs.attributes_provided == frozenset()


class TestAccessors:
    def test_for_attribute(self, prefs):
        weight = prefs.for_attribute("weight")
        assert len(weight) == 1
        assert weight[0].attribute == "weight"

    def test_for_attribute_missing_empty(self, prefs):
        assert prefs.for_attribute("height") == ()

    def test_purposes_for(self, prefs):
        assert prefs.purposes_for("weight") == frozenset({"billing"})
        assert prefs.purposes_for("height") == frozenset()

    def test_attributes_sorted(self, prefs):
        assert prefs.attributes() == ("age", "weight")

    def test_with_entries_extends_provided(self, prefs):
        more = prefs.with_entries([("height", PrivacyTuple("billing", 1, 1, 1))])
        assert "height" in more.attributes_provided
        assert len(more) == 3
        assert len(prefs) == 2  # original untouched

    def test_with_entries_reads_a_generator_once(self, prefs):
        more = prefs.with_entries(
            entry for entry in [("height", PrivacyTuple("billing", 1, 1, 1))]
        )
        assert "height" in more.attributes_provided
        assert len(more) == 3

    def test_equality(self):
        a = ProviderPreferences("x", [("w", PrivacyTuple("p", 1, 1, 1))])
        b = ProviderPreferences("x", [("w", PrivacyTuple("p", 1, 1, 1))])
        assert a == b
        assert hash(a) == hash(b)


class TestImplicitZero:
    def test_unmentioned_purpose_gets_zero_tuple(self, prefs):
        policy = HousePolicy([("weight", PrivacyTuple("marketing", 1, 1, 1))])
        completed = effective_preferences(prefs, policy)
        added = [e for e in completed if e.purpose == "marketing"]
        assert len(added) == 1
        assert added[0].tuple == PrivacyTuple.zero("marketing")
        assert added[0].attribute == "weight"

    def test_known_purpose_not_duplicated(self, prefs):
        policy = HousePolicy([("weight", PrivacyTuple("billing", 1, 1, 1))])
        completed = effective_preferences(prefs, policy)
        assert completed is prefs  # no additions needed

    def test_unprovided_attribute_not_completed(self, prefs):
        policy = HousePolicy([("height", PrivacyTuple("marketing", 1, 1, 1))])
        completed = effective_preferences(prefs, policy)
        assert completed is prefs

    def test_implicit_zero_disabled(self, prefs):
        policy = HousePolicy([("weight", PrivacyTuple("marketing", 1, 1, 1))])
        completed = effective_preferences(prefs, policy, implicit_zero=False)
        assert completed is prefs

    def test_one_zero_tuple_per_attribute_purpose_pair(self, prefs):
        policy = HousePolicy(
            [
                ("weight", PrivacyTuple("marketing", 1, 1, 1)),
                ("weight", PrivacyTuple("marketing", 2, 2, 2)),
            ]
        )
        completed = effective_preferences(prefs, policy)
        marketing = [e for e in completed if e.purpose == "marketing"]
        assert len(marketing) == 1

    def test_completion_covers_multiple_attributes(self, prefs):
        policy = HousePolicy(
            [
                ("weight", PrivacyTuple("marketing", 1, 1, 1)),
                ("age", PrivacyTuple("marketing", 1, 1, 1)),
            ]
        )
        completed = effective_preferences(prefs, policy)
        assert len(completed) == len(prefs) + 2
