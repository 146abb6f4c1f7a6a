"""Shared argument-checking helpers.

Small, dependency-free predicates used across the library so that error
messages stay uniform.  All helpers raise :class:`~repro.exceptions.ValidationError`
(or a subclass) on failure and return the validated value on success, which
lets callers validate inline::

    self.alpha = check_probability(alpha, "alpha")
"""

from __future__ import annotations

from collections.abc import Iterable
from numbers import Integral, Real

from .exceptions import ValidationError

#: The exact types of an ordered value as a document spells it: a level
#: name or an integer rank.  Subclasses are left out on purpose: ``True``
#: and ``np.int64(1)`` compare equal to ``1`` but must be checked as what
#: they are, so code that tests ``type(value) in EXACT_LEVEL_TYPES`` to
#: skip a check sends them down the checked path.
EXACT_LEVEL_TYPES = frozenset((str, int))


def check_type(value: object, expected: type | tuple[type, ...], name: str) -> object:
    """Return *value* if it is an instance of *expected*, else raise."""
    if not isinstance(value, expected):
        expected_names = (
            expected.__name__
            if isinstance(expected, type)
            else " | ".join(t.__name__ for t in expected)
        )
        raise ValidationError(
            f"{name} must be {expected_names}, got {type(value).__name__}: {value!r}"
        )
    return value


def check_non_empty_str(value: object, name: str) -> str:
    """Return *value* if it is a non-empty string (after stripping)."""
    check_type(value, str, name)
    if not value.strip():  # type: ignore[union-attr]
        raise ValidationError(f"{name} must be a non-empty string")
    return value  # type: ignore[return-value]


def check_int(value: object, name: str, *, minimum: int | None = None) -> int:
    """Return *value* as ``int`` if integral and >= *minimum* (when given).

    Booleans are rejected: ``True`` silently behaving as a privacy level of 1
    has bitten real policy documents, so we treat it as a type error.  An
    exact ``int`` skips the ``numbers`` ABC check (the common, hot case).
    """
    if type(value) is int:
        result = value
    elif isinstance(value, bool) or not isinstance(value, Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    else:
        result = int(value)
    if minimum is not None and result < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {result}")
    return result


def check_real(value: object, name: str, *, minimum: float | None = None) -> float:
    """Return *value* as ``float`` if real-valued and >= *minimum* (when given).

    An exact ``float`` skips the ``numbers`` ABC check (the common, hot case).
    """
    if type(value) is float:
        result = value
    elif isinstance(value, bool) or not isinstance(value, Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    else:
        result = float(value)
    if result != result:  # NaN
        raise ValidationError(f"{name} must not be NaN")
    if minimum is not None and result < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {result}")
    return result


def check_probability(value: object, name: str) -> float:
    """Return *value* as a float in the closed interval [0, 1]."""
    result = check_real(value, name, minimum=0.0)
    if result > 1.0:
        raise ValidationError(f"{name} must be <= 1, got {result}")
    return result


def check_unique(items: Iterable[object], name: str) -> list[object]:
    """Return *items* as a list after verifying there are no duplicates."""
    result = list(items)
    seen: set[object] = set()
    for item in result:
        if item in seen:
            raise ValidationError(f"duplicate {name}: {item!r}")
        seen.add(item)
    return result
