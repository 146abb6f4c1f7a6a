"""Population documents: a whole provider population as one JSON file.

The file-driven workflow (and the CLI) needs everything the model knows
about providers in one document::

    {
      "attribute_sensitivities": {"weight": 4, "age": 1},
      "providers": [
        {
          "provider": "ted",
          "segment": "pragmatist",          # optional
          "threshold": 50,                   # optional; omitted = never defaults
          "attributes_provided": ["weight"], # optional
          "preferences": [ {tuple spec}, ... ],
          "sensitivities": {                 # optional, per attribute
            "weight": {"value": 3, "granularity": 5, "retention": 2}
          }
        },
        ...
      ]
    }
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping

from ..core.dimensions import Dimension
from ..core.population import Population, Provider
from ..core.sensitivity import DimensionSensitivity
from ..exceptions import PolicyDocumentError
from ..taxonomy.builder import Taxonomy
from .ast import PreferenceDocument
from .parser import _lower_preferences, preference_document

_PROVIDER_KEYS = {
    "provider",
    "segment",
    "threshold",
    "attributes_provided",
    "preferences",
    "sensitivities",
}
_RECORD_KEYS = {"value", "visibility", "granularity", "retention"}


def _parse_sensitivity_record(
    raw: Mapping, provider: object, attribute: object
) -> DimensionSensitivity:
    unknown = set(raw) - _RECORD_KEYS
    if unknown:
        raise PolicyDocumentError(
            f"provider {provider!r}/{attribute!r}: unknown sensitivity keys "
            f"{sorted(unknown)}"
        )
    return DimensionSensitivity(
        value=raw.get("value", 1.0),
        visibility=raw.get("visibility", 1.0),
        granularity=raw.get("granularity", 1.0),
        retention=raw.get("retention", 1.0),
    )


def _entry_preference_document(entry: Mapping) -> PreferenceDocument:
    """One provider entry's embedded preference document (structural only)."""
    return preference_document(
        {
            "provider": entry.get("provider"),
            "preferences": entry.get("preferences", []),
            **(
                {"attributes_provided": entry["attributes_provided"]}
                if "attributes_provided" in entry
                else {}
            ),
        }
    )


def preference_documents(raw: Mapping) -> tuple[PreferenceDocument, ...]:
    """The per-provider preference documents embedded in a population doc.

    A population document is, among other things, a bundle of preference
    documents.  Both the CLI's ``validate`` command and the linter need
    those documents individually; extracting them here keeps the two
    paths from drifting.  Structural breakage raises
    :class:`PolicyDocumentError`; semantic checking is the validator's
    and linter's job.
    """
    if not isinstance(raw, Mapping):
        raise PolicyDocumentError(
            f"population document must be a mapping, got {type(raw).__name__}"
        )
    documents = []
    for entry in raw.get("providers", []):
        if not isinstance(entry, Mapping):
            raise PolicyDocumentError(
                f"provider entries must be mappings, got {type(entry).__name__}"
            )
        documents.append(_entry_preference_document(entry))
    return tuple(documents)


def parse_population(raw: Mapping, taxonomy: Taxonomy) -> Population:
    """Build a :class:`Population` from a population document dict.

    Each provider entry is lowered straight from its dict (no
    :class:`PreferenceDocument` is built): its preference specs, then
    its sensitivities, then its threshold.  Each distinct spec spelling
    is resolved once per taxonomy (:meth:`Taxonomy.tuple`).  Duplicate
    provider ids are reported after every entry is lowered.
    """
    if not isinstance(raw, Mapping):
        raise PolicyDocumentError(
            f"population document must be a mapping, got {type(raw).__name__}"
        )
    unknown = set(raw) - {"providers", "attribute_sensitivities"}
    if unknown:
        raise PolicyDocumentError(
            f"population document has unknown keys {sorted(unknown)}"
        )
    if "providers" not in raw:
        raise PolicyDocumentError("population document missing 'providers'")
    providers = []
    for entry in raw["providers"]:
        if not isinstance(entry, Mapping):
            raise PolicyDocumentError(
                f"provider entries must be mappings, got {type(entry).__name__}"
            )
        unknown = set(entry) - _PROVIDER_KEYS
        if unknown:
            raise PolicyDocumentError(
                f"provider entry has unknown keys {sorted(unknown)}"
            )
        provider = entry.get("provider")
        preferences = _lower_preferences(
            provider,
            entry.get("preferences", []),
            entry.get("attributes_provided"),
            taxonomy,
        )
        sensitivities = {
            attribute: _parse_sensitivity_record(record, provider, attribute)
            for attribute, record in entry.get("sensitivities", {}).items()
        }
        threshold = entry.get("threshold")
        providers.append(
            Provider(
                preferences=preferences,
                sensitivity=sensitivities,
                threshold=math.inf if threshold is None else float(threshold),
                segment=entry.get("segment"),
            )
        )
    return Population(
        providers,
        attribute_sensitivities=dict(raw.get("attribute_sensitivities", {})),
    )


def population_to_dict(
    population: Population, taxonomy: Taxonomy | None = None
) -> dict:
    """Render a :class:`Population` as a population document dict."""
    from .serializer import preferences_to_dict

    providers = []
    for provider in population:
        entry: dict = preferences_to_dict(provider.preferences, taxonomy)
        if provider.segment is not None:
            entry["segment"] = provider.segment
        if not math.isinf(provider.threshold):
            entry["threshold"] = provider.threshold
        if provider.sensitivity:
            entry["sensitivities"] = {
                attribute: {
                    "value": record.value,
                    "visibility": record.dimension_weight(Dimension.VISIBILITY),
                    "granularity": record.dimension_weight(
                        Dimension.GRANULARITY
                    ),
                    "retention": record.dimension_weight(Dimension.RETENTION),
                }
                for attribute, record in sorted(provider.sensitivity.items())
            }
        providers.append(entry)
    return {
        "attribute_sensitivities": population.attribute_sensitivities.as_dict(),
        "providers": providers,
    }


def population_from_json(text: str, taxonomy: Taxonomy) -> Population:
    """Parse a JSON population document string."""
    try:
        decoded = json.loads(text)
    except json.JSONDecodeError as error:
        raise PolicyDocumentError(
            f"invalid population JSON: {error}"
        ) from error
    return parse_population(decoded, taxonomy)


def population_to_json(
    population: Population, taxonomy: Taxonomy | None = None, *, indent: int = 2
) -> str:
    """Render a :class:`Population` as JSON text."""
    return json.dumps(
        population_to_dict(population, taxonomy), indent=indent
    )
