"""The rule registry and the context handed to every rule.

Rules are plain functions registered under a stable code via the
:func:`rule` decorator.  Each rule receives a :class:`LintContext` — the
parsed documents plus whatever could be lowered onto the core model — and
an ``emit`` callback pre-bound to the rule's code and severity.  Rules
whose inputs are absent (no population document, no candidate policy, a
document that failed to lower) simply emit nothing: the cause will have
been reported by a document-layer rule already.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property

from .._validation import check_probability, check_real
from ..core.policy import HousePolicy
from ..core.population import Population
from ..exceptions import LintConfigurationError
from ..policy_lang.ast import PolicyDocument, PreferenceDocument, TupleSpec
from ..taxonomy.builder import Taxonomy
from .diagnostics import Diagnostic, Severity, SourceLocation, sort_key
from .intervals import PopulationIntervals, interval_analysis


class Layer(enum.Enum):
    """Which analysis layer a rule belongs to.

    ``DOCUMENT`` rules look at one document against the taxonomy;
    ``MODEL`` rules reason across documents about the lowered model;
    ``ECONOMICS`` rules check Section 9's widening arithmetic;
    ``POPULATION`` rules reason about the policy/population pair through
    the interval abstraction (:mod:`repro.lint.intervals`).
    """

    DOCUMENT = "document"
    MODEL = "model"
    ECONOMICS = "economics"
    POPULATION = "population"


#: The admissible rule scopes.  ``global`` rules need the whole document
#: bundle; ``provider`` rules derive each provider's findings from that
#: provider's document alone (plus the taxonomy/policy/candidate
#: envelope); ``mixed`` rules emit both kinds of findings.  The scope is
#: what :mod:`repro.lint.incremental` keys its per-provider caching on.
SCOPES = ("global", "provider", "mixed")


@dataclass(frozen=True, slots=True)
class LintConfig:
    """Tunable analysis parameters.

    ``alpha`` enables the static alpha-PPDB certification rule;
    ``utility`` is Section 9's per-provider utility ``U``;
    ``max_extra_utility`` is the largest extra per-provider utility ``T``
    the house believes a widening could realistically unlock — when set,
    break-even thresholds above it are flagged as unattainable.
    """

    alpha: float | None = None
    utility: float = 1.0
    max_extra_utility: float | None = None

    def __post_init__(self) -> None:
        if self.alpha is not None:
            check_probability(self.alpha, "alpha")
        check_real(self.utility, "utility", minimum=0.0)
        if self.max_extra_utility is not None:
            check_real(self.max_extra_utility, "max_extra_utility", minimum=0.0)


@dataclass(frozen=True)
class LintContext:
    """Everything a rule may look at.

    The documents are present as parsed ASTs whenever they were supplied;
    the lowered model objects (``policy``, ``population``, ``candidate``)
    are ``None`` when the corresponding document was absent *or* failed
    semantic lowering — model rules must tolerate both.
    """

    taxonomy: Taxonomy
    policy_doc: PolicyDocument | None = None
    preference_docs: tuple[PreferenceDocument, ...] = ()
    candidate_doc: PolicyDocument | None = None
    policy: HousePolicy | None = None
    population: Population | None = None
    candidate: HousePolicy | None = None
    attribute_sensitivities: Mapping[str, float] = field(default_factory=dict)
    config: LintConfig = field(default_factory=LintConfig)

    @cached_property
    def population_intervals(self) -> PopulationIntervals:
        """The static severity intervals of ``policy`` against
        ``population`` (population weight bounds), computed once per
        context for every rule that reads them.  Only read when both
        were lowered."""
        return interval_analysis(self.policy, self.population)

    def iter_policy_specs(self) -> Iterator[tuple[SourceLocation, TupleSpec]]:
        """Every policy/candidate rule spec with its location."""
        for kind, document in (
            ("policy", self.policy_doc),
            ("candidate", self.candidate_doc),
        ):
            if document is None:
                continue
            for index, spec in enumerate(document.rules):
                yield (
                    SourceLocation(kind, name=document.name, index=index),
                    spec,
                )

    def iter_preference_specs(
        self,
    ) -> Iterator[tuple[SourceLocation, TupleSpec, PreferenceDocument]]:
        """Every preference spec with its location and owning document."""
        for document in self.preference_docs:
            for index, spec in enumerate(document.preferences):
                yield (
                    SourceLocation(
                        "population", name=str(document.provider), index=index
                    ),
                    spec,
                    document,
                )


#: Signature of a rule's check function.
CheckFunction = Callable[[LintContext, Callable[..., None]], None]


@dataclass(frozen=True, slots=True)
class RuleInfo:
    """One registered rule: identity, metadata, and the check function."""

    code: str
    title: str
    severity: Severity
    layer: Layer
    description: str
    check: CheckFunction
    scope: str = "global"


_REGISTRY: dict[str, RuleInfo] = {}


def rule(
    code: str,
    *,
    title: str,
    severity: Severity,
    layer: Layer,
    description: str,
    scope: str = "global",
) -> Callable[[CheckFunction], CheckFunction]:
    """Register a check function under a stable diagnostic code."""
    if scope not in SCOPES:
        raise LintConfigurationError(
            f"unknown rule scope {scope!r}; expected one of {', '.join(SCOPES)}"
        )

    def decorate(check: CheckFunction) -> CheckFunction:
        if code in _REGISTRY:
            raise LintConfigurationError(f"duplicate rule code {code!r}")
        _REGISTRY[code] = RuleInfo(
            code=code,
            title=title,
            severity=severity,
            layer=layer,
            description=description,
            check=check,
            scope=scope,
        )
        return check

    return decorate


def unregister_rule(code: str) -> bool:
    """Remove a rule from the registry (plugin teardown / tests).

    Returns whether the code was registered.  Built-in rules can be
    removed too — they come back on the next fresh interpreter, not
    within the process — so this is strictly a plugin-lifecycle helper.
    """
    return _REGISTRY.pop(code, None) is not None


def all_rules() -> tuple[RuleInfo, ...]:
    """Every registered rule, sorted by code."""
    _ensure_rules_loaded()
    return tuple(_REGISTRY[code] for code in sorted(_REGISTRY))


def get_rule(code: str) -> RuleInfo:
    """The rule registered under *code*."""
    _ensure_rules_loaded()
    try:
        return _REGISTRY[code]
    except KeyError:
        raise LintConfigurationError(f"unknown rule code {code!r}") from None


def resolve_codes(codes: Iterable[str]) -> frozenset[str]:
    """Validate a user-supplied code selection against the registry."""
    resolved = frozenset(code.strip().upper() for code in codes if code.strip())
    for code in resolved:
        get_rule(code)
    return resolved


def run_rules(
    context: LintContext,
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    scopes: Iterable[str] | None = None,
) -> tuple[Diagnostic, ...]:
    """Run every (selected) rule over *context* and return sorted diagnostics.

    *scopes*, when given, restricts the run to rules whose ``scope`` is in
    the set — the incremental runner uses this to split the catalogue
    into a global pass and per-provider passes.
    """
    selected = None if select is None else resolve_codes(select)
    ignored = frozenset() if ignore is None else resolve_codes(ignore)
    scope_filter = None if scopes is None else frozenset(scopes)
    diagnostics: list[Diagnostic] = []
    for info in all_rules():
        if scope_filter is not None and info.scope not in scope_filter:
            continue
        if selected is not None and info.code not in selected:
            continue
        if info.code in ignored:
            continue

        def emit(
            location: SourceLocation,
            message: str,
            *,
            _info: RuleInfo = info,
            **payload: object,
        ) -> None:
            diagnostics.append(
                Diagnostic(
                    code=_info.code,
                    severity=_info.severity,
                    message=message,
                    location=location,
                    payload=payload,
                )
            )

        info.check(context, emit)
    return tuple(sorted(diagnostics, key=sort_key))


def _ensure_rules_loaded() -> None:
    """Import the rule modules so their decorators populate the registry."""
    from . import (  # noqa: F401
        rules_document,
        rules_economics,
        rules_model,
        rules_population,
    )
    from .plugins import load_entry_point_rules

    load_entry_point_rules()


def rules_fingerprint() -> str:
    """A stable digest of the active rule catalogue.

    Changes whenever a rule is added, removed, or re-severitied —
    including via plugins — so incremental caches keyed on it can never
    serve diagnostics produced by a different catalogue.
    """
    import hashlib

    _ensure_rules_loaded()
    payload = "\n".join(
        f"{code}:{info.severity.value}:{info.layer.value}:{info.scope}"
        for code, info in sorted(_REGISTRY.items())
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
