"""Parsed-document dataclasses for the policy language.

A document is a plain nested structure (safe to serialise as JSON).  The
AST layer sits between raw dicts and the core model: the parser produces
AST nodes from dicts, the validator checks them against a taxonomy, and
``to_model`` methods lower them onto the core types.

Document shapes
---------------
Policy document::

    {
      "name": "clinic-baseline",
      "rules": [
        {"attribute": "diagnosis",
         "purpose": "treatment",
         "visibility": "clinic",      # level name or integer rank
         "granularity": "specific",
         "retention": "year"},
        ...
      ]
    }

Preference document::

    {
      "provider": "alice",
      "attributes_provided": ["diagnosis", "age"],   # optional
      "preferences": [ {tuple spec as above, minus "attribute" key plus it} ]
    }

Sensitivity document::

    {
      "attributes": {"diagnosis": 5, "age": 1},
      "providers": {
        "alice": {"diagnosis": {"value": 2, "visibility": 1,
                                 "granularity": 3, "retention": 1}}
      }
    }
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping

from .._validation import EXACT_LEVEL_TYPES, check_non_empty_str
from ..exceptions import PolicyDocumentError


def check_spec_values(
    attribute: object,
    purpose: object,
    visibility: object,
    granularity: object,
    retention: object,
) -> None:
    """Check one rule/preference line's five values.

    The one value rule for :class:`TupleSpec` and for the parser's
    direct lowering of preference specs.  The common spelling —
    non-blank ``str`` attribute and purpose, ordered values of exact
    type ``str`` or ``int`` — passes every check below, so it is
    accepted before them; any other spelling gets the checks, in
    order, and the first fault is raised.
    """
    if (
        type(attribute) is str
        and type(purpose) is str
        and attribute.strip()
        and purpose.strip()
        and type(visibility) in EXACT_LEVEL_TYPES
        and type(granularity) in EXACT_LEVEL_TYPES
        and type(retention) in EXACT_LEVEL_TYPES
    ):
        return
    check_non_empty_str(attribute, "attribute")
    check_non_empty_str(purpose, "purpose")
    for name, value in (
        ("visibility", visibility),
        ("granularity", granularity),
        ("retention", retention),
    ):
        if not isinstance(value, (str, int)) or isinstance(value, bool):
            raise PolicyDocumentError(
                f"{name} must be a level name or integer rank, got {value!r}"
            )


@dataclass(frozen=True, slots=True)
class TupleSpec:
    """One rule/preference line: attribute + the four dimension values.

    Ordered values may be level names (strings) or integer ranks; they are
    resolved against a taxonomy at lowering time.
    """

    attribute: str
    purpose: str
    visibility: str | int
    granularity: str | int
    retention: str | int

    def __post_init__(self) -> None:
        check_spec_values(
            self.attribute,
            self.purpose,
            self.visibility,
            self.granularity,
            self.retention,
        )

    def as_dict(self) -> dict[str, str | int]:
        """The spec as a plain dict (the document form)."""
        return {
            "attribute": self.attribute,
            "purpose": self.purpose,
            "visibility": self.visibility,
            "granularity": self.granularity,
            "retention": self.retention,
        }


@dataclass(frozen=True)
class PolicyDocument:
    """A parsed house-policy document."""

    name: str
    rules: tuple[TupleSpec, ...]

    def __post_init__(self) -> None:
        check_non_empty_str(self.name, "name")

    def as_dict(self) -> dict:
        """The document as a plain dict."""
        return {
            "name": self.name,
            "rules": [rule.as_dict() for rule in self.rules],
        }


@dataclass(frozen=True)
class PreferenceDocument:
    """A parsed provider-preference document."""

    provider: str
    preferences: tuple[TupleSpec, ...]
    attributes_provided: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        check_non_empty_str(self.provider, "provider")

    def as_dict(self) -> dict:
        """The document as a plain dict."""
        result: dict = {
            "provider": self.provider,
            "preferences": [spec.as_dict() for spec in self.preferences],
        }
        if self.attributes_provided is not None:
            result["attributes_provided"] = list(self.attributes_provided)
        return result


@dataclass(frozen=True)
class SensitivityDocument:
    """A parsed sensitivity document (``Sigma`` plus per-provider ``sigma``)."""

    attributes: Mapping[str, float] = field(default_factory=dict)
    providers: Mapping[str, Mapping[str, Mapping[str, float]]] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "attributes", dict(self.attributes))
        object.__setattr__(
            self,
            "providers",
            {
                provider: {attr: dict(rec) for attr, rec in per_attr.items()}
                for provider, per_attr in self.providers.items()
            },
        )

    def as_dict(self) -> dict:
        """The document as a plain dict."""
        return {
            "attributes": dict(self.attributes),
            "providers": {
                provider: {attr: dict(rec) for attr, rec in per_attr.items()}
                for provider, per_attr in self.providers.items()
            },
        }
