"""Parse policy/preference/sensitivity documents into model objects.

Two layers:

* ``*_document`` functions — raw dict to AST, structural checks only;
* ``parse_*`` functions — dict (or AST) + taxonomy to core model objects,
  resolving level names to ranks and validating purposes.

A preference document (and each provider entry of a population
document) is lowered straight from its dict by :func:`_lower_preferences`,
without building the AST: the checks are the AST's, in the same order,
with the same messages.

``*_from_json`` variants accept a JSON string.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping
from operator import itemgetter

from .._validation import check_non_empty_str
from ..core.policy import HousePolicy
from ..core.preferences import ProviderPreferences
from ..core.sensitivity import (
    AttributeSensitivities,
    DimensionSensitivity,
    ProviderSensitivity,
    SensitivityModel,
)
from ..exceptions import PolicyDocumentError
from ..taxonomy.builder import Taxonomy
from .ast import (
    PolicyDocument,
    PreferenceDocument,
    SensitivityDocument,
    TupleSpec,
    check_spec_values,
)

_TUPLE_KEYS = ("purpose", "visibility", "granularity", "retention")

#: A spec's five values, in ``(attribute, purpose, V, G, R)`` order.
_spec_values = itemgetter("attribute", *_TUPLE_KEYS)


def _tuple_spec(raw: Mapping, *, context: str) -> TupleSpec:
    """Build a :class:`TupleSpec` from one raw rule dict."""
    if not isinstance(raw, Mapping):
        raise PolicyDocumentError(
            f"{context}: each rule must be a mapping, got {type(raw).__name__}"
        )
    missing = [key for key in ("attribute", *_TUPLE_KEYS) if key not in raw]
    if missing:
        raise PolicyDocumentError(
            f"{context}: rule missing keys {missing}: {dict(raw)!r}"
        )
    unknown = set(raw) - {"attribute", *_TUPLE_KEYS}
    if unknown:
        raise PolicyDocumentError(
            f"{context}: rule has unknown keys {sorted(unknown)}"
        )
    return TupleSpec(
        attribute=raw["attribute"],
        purpose=raw["purpose"],
        visibility=raw["visibility"],
        granularity=raw["granularity"],
        retention=raw["retention"],
    )


def _checked_spec(raw: object, provider: object) -> tuple:
    """One raw preference spec as ``(attribute, purpose, V, G, R)``.

    Checked as :func:`_tuple_spec` checks it, without building the
    :class:`TupleSpec`: a ``dict`` of exactly the five keys passes every
    structural check, so only its values are checked
    (:func:`~repro.policy_lang.ast.check_spec_values`, the rule
    :class:`TupleSpec` applies); anything else goes through
    :func:`_tuple_spec`, which reports its first fault or accepts
    another Mapping.
    """
    if type(raw) is dict and len(raw) == 5:
        try:
            values = _spec_values(raw)
        except KeyError:
            pass
        else:
            check_spec_values(*values)
            return values
    spec = _tuple_spec(raw, context=f"preferences of {provider!r}")
    return (
        spec.attribute,
        spec.purpose,
        spec.visibility,
        spec.granularity,
        spec.retention,
    )


def _lower_preferences(
    provider: object,
    specs: Iterable,
    attributes_provided: Iterable | None,
    taxonomy: Taxonomy,
) -> ProviderPreferences:
    """Lower one provider's raw preference specs, without building an AST.

    The one spec-lowering path of :func:`parse_preferences` and
    :func:`~repro.policy_lang.population_doc.parse_population`.  Faults
    are reported in the order the AST path reports them: every spec's
    structure and types, spec by spec, and the iterability of
    *attributes_provided*; then the provider id; then taxonomy
    resolution, spec by spec (memoized per spelling by
    :meth:`Taxonomy.tuple`); then *attributes_provided* covering the
    attributes the specs name, checked by the trusted
    :meth:`ProviderPreferences._from_pairs`.
    """
    checked = [_checked_spec(spec, provider) for spec in specs]
    if attributes_provided is not None:
        attributes_provided = tuple(attributes_provided)
    check_non_empty_str(provider, "provider")
    resolve = taxonomy.tuple
    pairs = [
        (attribute, resolve(purpose, visibility, granularity, retention))
        for attribute, purpose, visibility, granularity, retention in checked
    ]
    return ProviderPreferences._from_pairs(provider, pairs, attributes_provided)


def _check_preference_mapping(raw: object) -> None:
    """The checks every raw preference document gets before its specs."""
    if not isinstance(raw, Mapping):
        raise PolicyDocumentError(
            f"preference document must be a mapping, got {type(raw).__name__}"
        )
    for key in ("provider", "preferences"):
        if key not in raw:
            raise PolicyDocumentError(f"preference document missing {key!r}")


def policy_document(raw: Mapping) -> PolicyDocument:
    """Raw dict to :class:`PolicyDocument` (structural checks only)."""
    if not isinstance(raw, Mapping):
        raise PolicyDocumentError(
            f"policy document must be a mapping, got {type(raw).__name__}"
        )
    if "rules" not in raw:
        raise PolicyDocumentError("policy document missing 'rules'")
    name = raw.get("name", "house-policy")
    rules = tuple(
        _tuple_spec(rule, context=f"policy {name!r}") for rule in raw["rules"]
    )
    return PolicyDocument(name=name, rules=rules)


def preference_document(raw: Mapping) -> PreferenceDocument:
    """Raw dict to :class:`PreferenceDocument` (structural checks only)."""
    _check_preference_mapping(raw)
    provider = raw["provider"]
    specs = tuple(
        _tuple_spec(spec, context=f"preferences of {provider!r}")
        for spec in raw["preferences"]
    )
    attributes_provided = raw.get("attributes_provided")
    if attributes_provided is not None:
        attributes_provided = tuple(attributes_provided)
    return PreferenceDocument(
        provider=provider,
        preferences=specs,
        attributes_provided=attributes_provided,
    )


def sensitivity_document(raw: Mapping) -> SensitivityDocument:
    """Raw dict to :class:`SensitivityDocument` (structural checks only)."""
    if not isinstance(raw, Mapping):
        raise PolicyDocumentError(
            f"sensitivity document must be a mapping, got {type(raw).__name__}"
        )
    unknown = set(raw) - {"attributes", "providers"}
    if unknown:
        raise PolicyDocumentError(
            f"sensitivity document has unknown keys {sorted(unknown)}"
        )
    return SensitivityDocument(
        attributes=raw.get("attributes", {}),
        providers=raw.get("providers", {}),
    )


def parse_policy(raw: Mapping | PolicyDocument, taxonomy: Taxonomy) -> HousePolicy:
    """Lower a policy document onto a :class:`HousePolicy`.

    Level names are resolved through the taxonomy's ladders; purposes are
    validated against its registry.
    """
    document = raw if isinstance(raw, PolicyDocument) else policy_document(raw)
    entries = [
        (
            spec.attribute,
            taxonomy.tuple(
                spec.purpose, spec.visibility, spec.granularity, spec.retention
            ),
        )
        for spec in document.rules
    ]
    return HousePolicy(entries, name=document.name)


def parse_preferences(
    raw: Mapping | PreferenceDocument, taxonomy: Taxonomy
) -> ProviderPreferences:
    """Lower a preference document onto a :class:`ProviderPreferences`.

    A dict is lowered directly (:func:`_lower_preferences`), and so are
    an AST's specs, in their dict form.
    """
    if isinstance(raw, PreferenceDocument):
        return _lower_preferences(
            raw.provider,
            [spec.as_dict() for spec in raw.preferences],
            raw.attributes_provided,
            taxonomy,
        )
    _check_preference_mapping(raw)
    return _lower_preferences(
        raw["provider"],
        raw["preferences"],
        raw.get("attributes_provided"),
        taxonomy,
    )


def parse_sensitivities(raw: Mapping | SensitivityDocument) -> SensitivityModel:
    """Lower a sensitivity document onto a :class:`SensitivityModel`."""
    document = (
        raw if isinstance(raw, SensitivityDocument) else sensitivity_document(raw)
    )
    providers = {}
    for provider_id, per_attribute in document.providers.items():
        records = {}
        for attribute, record in per_attribute.items():
            unknown = set(record) - {
                "value",
                "visibility",
                "granularity",
                "retention",
            }
            if unknown:
                raise PolicyDocumentError(
                    f"sensitivity record for {provider_id!r}/{attribute!r} "
                    f"has unknown keys {sorted(unknown)}"
                )
            records[attribute] = DimensionSensitivity(
                value=record.get("value", 1.0),
                visibility=record.get("visibility", 1.0),
                granularity=record.get("granularity", 1.0),
                retention=record.get("retention", 1.0),
            )
        providers[provider_id] = ProviderSensitivity(
            provider_id=provider_id, per_attribute=records
        )
    return SensitivityModel(
        AttributeSensitivities(dict(document.attributes)), providers
    )


def policy_from_json(text: str, taxonomy: Taxonomy) -> HousePolicy:
    """Parse a JSON policy document string."""
    return parse_policy(_load_json(text, "policy"), taxonomy)


def preferences_from_json(text: str, taxonomy: Taxonomy) -> ProviderPreferences:
    """Parse a JSON preference document string."""
    return parse_preferences(_load_json(text, "preference"), taxonomy)


def _load_json(text: str, kind: str) -> Mapping:
    """Decode JSON, wrapping decode errors in the document error type."""
    try:
        decoded = json.loads(text)
    except json.JSONDecodeError as error:
        raise PolicyDocumentError(f"invalid {kind} JSON: {error}") from error
    if not isinstance(decoded, Mapping):
        raise PolicyDocumentError(
            f"{kind} document must decode to an object, got "
            f"{type(decoded).__name__}"
        )
    return decoded
