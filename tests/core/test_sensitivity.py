"""Unit tests for sensitivity factors (Eqs. 10-11)."""

from __future__ import annotations

import pytest

from repro.core import (
    AttributeSensitivities,
    Dimension,
    DimensionSensitivity,
    ProviderSensitivity,
    SensitivityModel,
)
from repro.exceptions import ValidationError


class TestDimensionSensitivity:
    def test_defaults_are_neutral(self):
        s = DimensionSensitivity()
        assert s.value == 1.0
        for dim in (Dimension.VISIBILITY, Dimension.GRANULARITY, Dimension.RETENTION):
            assert s.dimension_weight(dim) == 1.0

    def test_from_sequence_matches_paper_ordering(self):
        # Ted's sigma in Table 1: <s, s[V], s[G], s[R]> = <3, 1, 5, 2>
        s = DimensionSensitivity.from_sequence((3.0, 1.0, 5.0, 2.0))
        assert s.value == 3.0
        assert s[Dimension.VISIBILITY] == 1.0
        assert s[Dimension.GRANULARITY] == 5.0
        assert s[Dimension.RETENTION] == 2.0

    def test_purpose_weight_raises(self):
        with pytest.raises(ValidationError):
            DimensionSensitivity().dimension_weight(Dimension.PURPOSE)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            DimensionSensitivity(value=-1.0)
        with pytest.raises(ValidationError):
            DimensionSensitivity(granularity=-0.5)

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            DimensionSensitivity(value=float("nan"))

    def test_zero_weights_allowed(self):
        s = DimensionSensitivity(value=0.0)
        assert s.value == 0.0

    def test_neutral_classmethod(self):
        assert DimensionSensitivity.neutral() == DimensionSensitivity()


class TestProviderSensitivity:
    def test_missing_attribute_is_neutral(self):
        sigma = ProviderSensitivity("alice")
        assert sigma.for_attribute("anything") == DimensionSensitivity.neutral()

    def test_explicit_attribute_returned(self):
        record = DimensionSensitivity(value=3.0)
        sigma = ProviderSensitivity("alice", {"weight": record})
        assert sigma.for_attribute("weight") == record

    def test_none_provider_rejected(self):
        with pytest.raises(ValidationError):
            ProviderSensitivity(None)

    def test_non_record_rejected(self):
        with pytest.raises(ValidationError):
            ProviderSensitivity("alice", {"weight": 3.0})  # type: ignore[dict-item]


class TestAttributeSensitivities:
    def test_default_weight_is_one(self):
        sigma = AttributeSensitivities({"weight": 4.0})
        assert sigma.weight("weight") == 4.0
        assert sigma.weight("age") == 1.0

    def test_subscript(self):
        sigma = AttributeSensitivities({"weight": 4.0})
        assert sigma["weight"] == 4.0

    def test_contains_only_explicit(self):
        sigma = AttributeSensitivities({"weight": 4.0})
        assert "weight" in sigma
        assert "age" not in sigma

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            AttributeSensitivities({"weight": -1.0})

    def test_not_iterable(self):
        # Subscripting answers 1.0 for any key, so iterating through
        # __getitem__ would never end; iteration must refuse at once.
        sigma = AttributeSensitivities({"weight": 4.0})
        with pytest.raises(TypeError):
            iter(sigma)
        with pytest.raises(TypeError):
            list(sigma)

    def test_as_dict_copies(self):
        sigma = AttributeSensitivities({"weight": 4.0})
        d = sigma.as_dict()
        d["weight"] = 99.0
        assert sigma.weight("weight") == 4.0

    def test_equality(self):
        assert AttributeSensitivities({"a": 2.0}) == AttributeSensitivities({"a": 2.0})
        assert AttributeSensitivities({"a": 2.0}) != AttributeSensitivities({"a": 3.0})


class TestSensitivityModel:
    def test_neutral_model_all_ones(self):
        model = SensitivityModel.neutral()
        assert model.attribute_weight("x") == 1.0
        assert model.datum("anyone", "x") == DimensionSensitivity.neutral()

    def test_accepts_plain_mapping_for_attributes(self):
        model = SensitivityModel({"weight": 4.0})
        assert model.attribute_weight("weight") == 4.0

    def test_provider_lookup(self):
        sigma = ProviderSensitivity(
            "ted", {"weight": DimensionSensitivity(value=3.0)}
        )
        model = SensitivityModel(None, {"ted": sigma})
        assert model.datum("ted", "weight").value == 3.0
        assert model.datum("ted", "other") == DimensionSensitivity.neutral()
        assert model.datum("alice", "weight") == DimensionSensitivity.neutral()

    def test_mismatched_key_rejected(self):
        sigma = ProviderSensitivity("ted")
        with pytest.raises(ValidationError):
            SensitivityModel(None, {"alice": sigma})

    def test_non_record_provider_rejected(self):
        with pytest.raises(ValidationError):
            SensitivityModel(None, {"ted": 1.0})  # type: ignore[dict-item]

    def test_with_provider_returns_new_model(self):
        model = SensitivityModel.neutral()
        sigma = ProviderSensitivity(
            "ted", {"weight": DimensionSensitivity(value=9.0)}
        )
        extended = model.with_provider(sigma)
        assert extended.datum("ted", "weight").value == 9.0
        assert model.datum("ted", "weight").value == 1.0

    def test_explicit_providers_copy(self):
        sigma = ProviderSensitivity("ted")
        model = SensitivityModel(None, {"ted": sigma})
        explicit = model.explicit_providers()
        assert explicit == {"ted": sigma}
        explicit.clear()
        assert model.explicit_providers() == {"ted": sigma}
