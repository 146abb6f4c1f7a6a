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
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from time import perf_counter

from .._validation import check_probability, check_real
from ..core.policy import HousePolicy
from ..core.population import Population
from ..core.tuples import PrivacyTuple
from ..exceptions import LintConfigurationError
from ..obs import active_observer
from ..perf.batch import BatchReport, BatchViolationEngine
from ..policy_lang.ast import PolicyDocument, PreferenceDocument
from ..taxonomy.builder import Taxonomy
from .diagnostics import Diagnostic, Severity, SourceLocation, sort_key


class Layer(enum.Enum):
    """Which analysis layer a rule belongs to.

    ``DOCUMENT`` rules look at one document against the taxonomy;
    ``MODEL`` rules reason across documents about the lowered model;
    ``ECONOMICS`` rules check Section 9's widening arithmetic;
    ``POPULATION`` rules reason about the policy/population pair, through
    lattice geometry or one batch evaluation of it
    (:attr:`LintContext.report`).
    """

    DOCUMENT = "document"
    MODEL = "model"
    ECONOMICS = "economics"
    POPULATION = "population"


#: The admissible rule scopes, metadata that SARIF rule descriptors
#: print as ``properties.scope``: ``global`` rules need the whole
#: document bundle, ``provider`` rules derive each provider's findings
#: from that provider's document alone, ``mixed`` rules emit both.
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
    def engine(self) -> BatchViolationEngine:
        """The batch engine over ``population``, compiled on first read
        and at most once per context.  Only read when ``policy`` and
        ``population`` were both lowered."""
        return BatchViolationEngine(self.population)

    @cached_property
    def report(self) -> BatchReport:
        """The one batch evaluation of ``policy`` against ``population``
        (PVL212, PVL214); a certificate :attr:`engine` derives for the
        same policy (PVL110, PVL213) reads the same cached evaluation."""
        return self.engine.evaluate(self.policy)

    @cached_property
    def policy_rows(self) -> tuple[int, ...]:
        """For each entry of the lowered ``policy``, the index of the
        first policy-document row that lowers to it.

        ``HousePolicy`` keeps one entry per distinct ``(attribute,
        tuple)``, so a repeated row, or one tuple spelled with level
        names and with ranks, would shift every later entry's position
        away from its row.  Only read when ``policy`` was lowered."""
        if self.policy_doc is None:
            return tuple(range(len(self.policy)))
        first: dict[tuple[str, PrivacyTuple], int] = {}
        for index, spec in enumerate(self.policy_doc.rules):
            lowered = self.taxonomy.tuple(
                spec.purpose, spec.visibility, spec.granularity, spec.retention
            )
            first.setdefault((spec.attribute, lowered), index)
        return tuple(
            first[(entry.attribute, entry.tuple)] for entry in self.policy.entries
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
) -> tuple[Diagnostic, ...]:
    """Run every (selected) rule over *context* and return sorted diagnostics.

    While an observer is active the run is a ``lint.run`` span and each
    rule's check is one ``lint.rule_seconds{code}`` sample.
    """
    selected = None if select is None else resolve_codes(select)
    ignored = frozenset() if ignore is None else resolve_codes(ignore)
    rules = [
        info
        for info in all_rules()
        if (selected is None or info.code in selected)
        and info.code not in ignored
    ]
    diagnostics: list[Diagnostic] = []

    def emitter(info: RuleInfo) -> Callable[..., None]:
        def emit(location: SourceLocation, message: str, **payload: object) -> None:
            diagnostics.append(
                Diagnostic(
                    code=info.code,
                    severity=info.severity,
                    message=message,
                    location=location,
                    payload=payload,
                )
            )

        return emit

    obs = active_observer()
    if obs is None:
        for info in rules:
            info.check(context, emitter(info))
    else:
        with obs.span("lint.run", rules=len(rules)):
            for info in rules:
                start = perf_counter()
                info.check(context, emitter(info))
                obs.observe(
                    "lint.rule_seconds", perf_counter() - start, code=info.code
                )
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
