"""Incremental linting: fingerprint-keyed caching of per-provider passes.

A full :func:`~repro.lint.runner.lint_documents` run re-derives every
diagnostic from scratch.  For population-scale documents that is mostly
wasted work: the catalogue splits cleanly into

* a **global pass** — rules with scope ``global`` or ``mixed``, run once
  over the full document bundle, keeping every finding that is *not*
  attached to a named provider; and
* a **provider pass** — rules with scope ``provider`` or ``mixed``, run
  per provider over a singleton context (that provider's document plus
  the shared taxonomy/policy/candidate envelope), keeping exactly the
  findings attached to that provider.

Because provider-scoped rules derive each provider's findings from that
provider's document alone (see :data:`~repro.lint.registry.SCOPES`), the
merged, sorted union of the two passes equals the full run — property
``tests/lint/test_incremental.py`` holds this parity over every bundled
dataset.  The decomposition buys **caching**: each pass is keyed by a
SHA-256 fingerprint of its exact inputs (documents, config,
select/ignore, and the :func:`~repro.lint.registry.rules_fingerprint` of
the active catalogue, so plugin changes invalidate everything).  Editing
one provider re-lints one provider.  Cache-missed passes run serially:
fanning them over a process pool was slower than one process at every
population size measured (30 to 2000 providers).

Cached diagnostics round-trip through JSON, so payload tuples come back
as lists; every renderer treats the two identically, which keeps cache
hits byte-stable with cache misses in all output formats.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from collections.abc import Iterable, Mapping

from ..exceptions import PrivacyModelError
from ..obs import active_observer
from ..policy_lang.ast import PolicyDocument
from ..policy_lang.population_doc import parse_population
from ..policy_lang.taxonomy_doc import taxonomy_to_dict
from ..storage import atomic_write_text
from ..taxonomy.builder import Taxonomy
from .diagnostics import Diagnostic, sort_key
from .registry import (
    LintConfig,
    LintContext,
    run_rules,
    rules_fingerprint,
)
from .report import LintReport
from .runner import build_context

#: Scopes run once over the full bundle / once per provider.
GLOBAL_SCOPES = ("global", "mixed")
PROVIDER_SCOPES = ("provider", "mixed")

#: Cache file format version; bump on any incompatible layout change.
CACHE_VERSION = 1


def fingerprint(obj: object) -> str:
    """SHA-256 of *obj*'s canonical JSON form.

    Canonical means key-sorted with minimal separators, so two mappings
    with the same content fingerprint identically regardless of
    insertion order.  Non-JSON values fall back to ``str``.
    """
    payload = json.dumps(
        obj, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class LintCache:
    """A fingerprint-keyed store of diagnostic lists, persisted as JSON.

    Tolerant by construction: a missing, unreadable, corrupt, or
    wrong-version cache file loads as empty (a cold cache is always
    correct — it only costs recomputation).  :meth:`save` writes
    atomically via :func:`~repro.storage.atomic_write_text`, so a
    crashed run can never leave a torn file behind.
    """

    def __init__(self, path: str | os.PathLike | None = None) -> None:
        self.path = os.fspath(path) if path is not None else None
        self._entries: dict[str, list[dict]] = {}
        self.hits = 0
        self.misses = 0
        if self.path is not None:
            self._entries = self._load(self.path)

    @staticmethod
    def _load(path: str) -> dict[str, list[dict]]:
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
            if (
                isinstance(data, dict)
                and data.get("version") == CACHE_VERSION
                and isinstance(data.get("entries"), dict)
            ):
                return dict(data["entries"])
        except (OSError, ValueError):
            pass
        return {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> tuple[Diagnostic, ...] | None:
        """The cached diagnostics under *key*, or None on a miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return tuple(Diagnostic.from_dict(raw) for raw in entry)

    def put(self, key: str, diagnostics: Iterable[Diagnostic]) -> None:
        """Record *diagnostics* under *key* (JSON-safe dict forms)."""
        self._entries[key] = [d.as_dict() for d in diagnostics]

    def save(self, path: str | os.PathLike | None = None) -> None:
        """Persist the cache atomically to *path* (default: load path)."""
        target = os.fspath(path) if path is not None else self.path
        if target is None:
            raise ValueError("LintCache has no path to save to")
        atomic_write_text(
            target,
            json.dumps(
                {"version": CACHE_VERSION, "entries": self._entries},
                sort_keys=True,
            ),
        )


def _document_digest(raw: Mapping | PolicyDocument | None) -> str:
    if raw is None:
        return "absent"
    if isinstance(raw, PolicyDocument):
        return fingerprint(raw.as_dict())
    return fingerprint(raw)


def _envelope_digest(
    taxonomy: Taxonomy,
    policy: Mapping | PolicyDocument | None,
    candidate: Mapping | PolicyDocument | None,
    config: LintConfig,
    select: Iterable[str] | None,
    ignore: Iterable[str] | None,
) -> str:
    """Everything every pass depends on besides the population."""
    return fingerprint(
        {
            "taxonomy": taxonomy_to_dict(taxonomy),
            "policy": _document_digest(policy),
            "candidate": _document_digest(candidate),
            "config": {
                "alpha": config.alpha,
                "utility": config.utility,
                "max_extra_utility": config.max_extra_utility,
            },
            "select": sorted(select) if select is not None else None,
            "ignore": sorted(ignore) if ignore is not None else None,
            "rules": rules_fingerprint(),
        }
    )


def _is_provider_diagnostic(diagnostic: Diagnostic) -> bool:
    """Whether a finding belongs to one named provider's document."""
    location = diagnostic.location
    return location.document == "population" and location.name is not None


def _provider_pass(
    context: LintContext,
    taxonomy: Taxonomy,
    entry: Mapping,
    pref_doc,
    envelope_sensitivities: Mapping[str, float],
    population_lowered: bool,
    select: Iterable[str] | None,
    ignore: Iterable[str] | None,
) -> tuple[Diagnostic, ...]:
    """Run the provider-scope rules over one provider's singleton context.

    When the full population failed semantic lowering, the singleton is
    denied a lowered population too — otherwise per-provider passes
    could emit model-layer findings the full run (whose ``population``
    is ``None``) never would.
    """
    population = None
    if population_lowered:
        try:
            population = parse_population(
                {
                    "attribute_sensitivities": dict(envelope_sensitivities),
                    "providers": [entry],
                },
                taxonomy,
            )
        except PrivacyModelError:  # pragma: no cover - full doc lowered
            population = None
    singleton = dataclasses.replace(
        context, preference_docs=(pref_doc,), population=population
    )
    diagnostics = run_rules(
        singleton, select=select, ignore=ignore, scopes=PROVIDER_SCOPES
    )
    return tuple(d for d in diagnostics if _is_provider_diagnostic(d))


def incremental_lint(
    taxonomy: Taxonomy,
    *,
    policy: Mapping | PolicyDocument | None = None,
    population: Mapping | None = None,
    candidate: Mapping | PolicyDocument | None = None,
    config: LintConfig | None = None,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    cache: LintCache | None = None,
) -> LintReport:
    """Lint the documents incrementally; equals the full-catalogue run.

    Same signature and output as
    :func:`~repro.lint.runner.lint_documents`, plus:

    cache:
        A :class:`LintCache`.  Passes whose input fingerprints are
        already recorded are served from it; fresh results are recorded
        back (call :meth:`LintCache.save` to persist).
    """
    config = config if config is not None else LintConfig()
    context = build_context(
        taxonomy,
        policy=policy,
        population=population,
        candidate=candidate,
        config=config,
    )
    obs = active_observer()
    envelope = _envelope_digest(
        taxonomy, policy, candidate, config, select, ignore
    )
    diagnostics: list[Diagnostic] = []

    # Global pass: everything not attached to a named provider.
    global_key = f"global:{envelope}:{_document_digest(population)}"
    cached = cache.get(global_key) if cache is not None else None
    if cached is None:
        fresh = tuple(
            d
            for d in run_rules(
                context, select=select, ignore=ignore, scopes=GLOBAL_SCOPES
            )
            if not _is_provider_diagnostic(d)
        )
        if cache is not None:
            cache.put(global_key, fresh)
        diagnostics.extend(fresh)
    else:
        diagnostics.extend(cached)

    # Provider passes: one singleton context per provider document.
    entries: list[Mapping] = []
    if population is not None:
        entries = list(population.get("providers", []))
    population_lowered = context.population is not None
    envelope_sensitivities = context.attribute_sensitivities
    pending: list[tuple[int, Mapping, str]] = []
    resolved: dict[int, tuple[Diagnostic, ...]] = {}
    for index, entry in enumerate(entries):
        key = (
            f"provider:{envelope}:{int(population_lowered)}:"
            f"{fingerprint(dict(entry))}:"
            f"{fingerprint(dict(envelope_sensitivities))}"
        )
        cached = cache.get(key) if cache is not None else None
        if cached is None:
            pending.append((index, entry, key))
        else:
            resolved[index] = cached

    for index, entry, key in pending:
        fresh = _provider_pass(
            context,
            taxonomy,
            entry,
            context.preference_docs[index],
            envelope_sensitivities,
            population_lowered,
            select,
            ignore,
        )
        if cache is not None:
            cache.put(key, fresh)
        resolved[index] = fresh

    for index in range(len(entries)):
        diagnostics.extend(resolved[index])

    if obs is not None:
        obs.inc("lint.incremental.runs")
        obs.inc("lint.incremental.providers", len(entries))
        if cache is not None:
            obs.inc("lint.cache.hits", cache.hits)
            obs.inc("lint.cache.misses", cache.misses)
    return LintReport(tuple(sorted(diagnostics, key=sort_key)))

