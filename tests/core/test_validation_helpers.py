"""Unit tests for the shared validation helpers and exception hierarchy."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro._validation import (
    check_int,
    check_non_empty_str,
    check_probability,
    check_real,
    check_type,
    check_unique,
)
from repro.exceptions import (
    AccessDeniedError,
    DomainError,
    PolicyDocumentError,
    PrivacyModelError,
    SchemaMismatchError,
    SimulationError,
    StorageError,
    UnknownAttributeError,
    UnknownProviderError,
    UnknownPurposeError,
    ValidationError,
)


class TestCheckType:
    def test_accepts_instance(self):
        assert check_type(3, int, "x") == 3

    def test_accepts_tuple_of_types(self):
        assert check_type("a", (int, str), "x") == "a"

    def test_rejects_wrong_type(self):
        with pytest.raises(ValidationError, match="x must be int"):
            check_type("a", int, "x")


class TestCheckNonEmptyStr:
    def test_accepts(self):
        assert check_non_empty_str("hello", "x") == "hello"

    def test_rejects_blank(self):
        with pytest.raises(ValidationError):
            check_non_empty_str("   ", "x")

    def test_rejects_non_string(self):
        with pytest.raises(ValidationError):
            check_non_empty_str(3, "x")


class TestCheckInt:
    def test_accepts_int(self):
        assert check_int(5, "x") == 5

    def test_accepts_numpy_integers(self):
        assert check_int(np.int64(5), "x") == 5

    def test_exact_int_returned_unchanged(self):
        value = 10**30
        assert check_int(value, "x") is value
        assert check_int(value, "x", minimum=0) is value

    def test_numpy_integer_returned_as_int(self):
        result = check_int(np.int64(7), "x", minimum=7)
        assert type(result) is int and result == 7

    def test_rejects_numpy_bool(self):
        with pytest.raises(ValidationError):
            check_int(np.bool_(True), "x")

    def test_rejects_bool(self):
        with pytest.raises(ValidationError):
            check_int(True, "x")

    def test_rejects_float(self):
        with pytest.raises(ValidationError):
            check_int(5.0, "x")

    def test_minimum(self):
        assert check_int(0, "x", minimum=0) == 0
        with pytest.raises(ValidationError):
            check_int(-1, "x", minimum=0)


class TestCheckReal:
    def test_accepts_int_and_float(self):
        assert check_real(5, "x") == 5.0
        assert check_real(5.5, "x") == 5.5

    def test_rejects_bool(self):
        with pytest.raises(ValidationError):
            check_real(True, "x")

    def test_rejects_numpy_bool(self):
        with pytest.raises(ValidationError):
            check_real(np.bool_(False), "x")

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            check_real(float("nan"), "x")

    def test_rejects_numpy_nan(self):
        with pytest.raises(ValidationError, match="NaN"):
            check_real(np.float64("nan"), "x")

    def test_exact_float_returned_unchanged(self):
        value = 0.1 + 0.2
        assert check_real(value, "x") is value
        assert check_real(value, "x", minimum=0.0) is value

    def test_accepts_numpy_float_and_fraction(self):
        result = check_real(np.float64(2.5), "x", minimum=2.5)
        assert type(result) is float and result == 2.5
        assert check_real(Fraction(1, 4), "x") == 0.25

    def test_minimum(self):
        with pytest.raises(ValidationError):
            check_real(-0.1, "x", minimum=0.0)


class TestCheckProbability:
    def test_bounds(self):
        assert check_probability(0.0, "p") == 0.0
        assert check_probability(1.0, "p") == 1.0
        with pytest.raises(ValidationError):
            check_probability(1.01, "p")
        with pytest.raises(ValidationError):
            check_probability(-0.01, "p")


class TestCheckUnique:
    def test_accepts_unique(self):
        assert check_unique([1, 2, 3], "item") == [1, 2, 3]

    def test_rejects_duplicates(self):
        with pytest.raises(ValidationError, match="duplicate item"):
            check_unique([1, 2, 1], "item")


class TestExceptionHierarchy:
    def test_all_derive_from_base(self):
        for exception_type in (
            ValidationError,
            DomainError,
            UnknownAttributeError,
            UnknownPurposeError,
            UnknownProviderError,
            PolicyDocumentError,
            StorageError,
            SchemaMismatchError,
            AccessDeniedError,
            SimulationError,
        ):
            assert issubclass(exception_type, PrivacyModelError)

    def test_validation_errors_are_value_errors(self):
        assert issubclass(ValidationError, ValueError)
        assert issubclass(DomainError, ValidationError)

    def test_unknown_provider_is_key_error(self):
        assert issubclass(UnknownProviderError, KeyError)

    def test_domain_error_fields(self):
        error = DomainError("visibility", "galaxy")
        assert error.domain_name == "visibility"
        assert error.value == "galaxy"
        assert "galaxy" in str(error)

    def test_access_denied_carries_decision(self):
        error = AccessDeniedError("nope", decision={"why": "test"})
        assert error.decision == {"why": "test"}

    def test_unknown_attribute_and_purpose_fields(self):
        assert UnknownAttributeError("height").attribute == "height"
        assert UnknownPurposeError("resale").purpose == "resale"
