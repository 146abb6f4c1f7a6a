"""Cross-document model rules (``PVL101``-``PVL110``).

The paper's central observation is that violations are decidable from the
documents alone: a house policy tuple exceeding a provider preference
tuple (Definition 1) is detectable before any data is collected, and
alpha-PPDB certification (Definition 3) is a static property of the
policy/population pair.  These rules perform that reasoning on the
documents, before any data is collected.  PVL101 decides Definition 1
per policy rule from the rank triples of each provider's ``(attribute,
purpose)`` column, the implicit zero tuple standing in for a column the
supplier left empty; PVL110 reads the certificate of the context's one
batch evaluation (:attr:`~repro.lint.registry.LintContext.engine`).
``tests/properties/test_lint_reference_parity.py`` holds both against
the reference :func:`~repro.core.violation.violation_indicator` and
:func:`~repro.core.ppdb.certify_alpha_ppdb` on randomized populations.
"""

from __future__ import annotations

from collections.abc import Callable

from ..core.policy import PolicyEntry
from ..core.preferences import ProviderPreferences
from ..exceptions import ValidationError
from ..policy_lang.ast import TupleSpec
from .diagnostics import SourceLocation, Severity
from .registry import Layer, LintContext, rule


@rule(
    "PVL101",
    title="guaranteed violation",
    severity=Severity.ERROR,
    layer=Layer.MODEL,
    description=(
        "A policy rule exceeds the preferences (explicit or implicit-zero) "
        "of every provider supplying its attribute: deploying it violates "
        "that entire population segment with probability 1."
    ),
)
def check_guaranteed_violation(
    ctx: LintContext, emit: Callable[..., None]
) -> None:
    if ctx.policy is None or ctx.population is None or not len(ctx.population):
        return
    policy_attributes = set(ctx.policy.attributes())
    # The suppliers of each policy attribute, in population order.
    suppliers: dict[str, list[ProviderPreferences]] = {}
    for provider in ctx.population:
        preferences = provider.preferences
        for attribute in preferences.attributes_provided:
            if attribute in policy_attributes:
                suppliers.setdefault(attribute, []).append(preferences)
    for entry, index in zip(ctx.policy.entries, ctx.policy_rows):
        supplying = suppliers.get(entry.attribute)
        # Stop at the first supplier the rule does not violate.
        if not supplying or not all(
            _violates(entry, preferences) for preferences in supplying
        ):
            continue
        forces_pw_one = len(supplying) == len(ctx.population)
        message = (
            f"rule guarantees a violation for all {len(supplying)} "
            f"provider(s) supplying {entry.attribute!r} under purpose "
            f"{entry.purpose!r}"
        )
        if forces_pw_one:
            message += "; the policy forces P(W) = 1"
        emit(
            SourceLocation("policy", name=ctx.policy.name, index=index),
            message,
            attribute=entry.attribute,
            purpose=entry.purpose,
            violated_providers=[str(p.provider_id) for p in supplying],
            n_suppliers=len(supplying),
            forces_violation_probability_one=forces_pw_one,
        )


def _violates(entry: PolicyEntry, preferences: ProviderPreferences) -> bool:
    """Definition 1 for one policy entry alone: whether it exceeds, along
    some axis, one of the supplier's tuples in its ``(attribute,
    purpose)`` column — the implicit zero tuple if the supplier stated
    none there."""
    purpose = entry.purpose
    policy_tuple = entry.tuple
    v = policy_tuple.visibility
    g = policy_tuple.granularity
    r = policy_tuple.retention
    stated = False
    for preference in preferences.for_attribute(entry.attribute):
        if preference.purpose != purpose:
            continue
        stated = True
        tuple_ = preference.tuple
        if v > tuple_.visibility or g > tuple_.granularity or r > tuple_.retention:
            return True
    return not stated and (v > 0 or g > 0 or r > 0)


@rule(
    "PVL102",
    title="shadowed policy rule",
    severity=Severity.WARNING,
    layer=Layer.MODEL,
    description=(
        "A policy rule is dominated by another rule on the same attribute "
        "and purpose: every violation it can cause, the wider rule already "
        "causes, and keeping both double-counts severity."
    ),
)
def check_shadowed_rule(ctx: LintContext, emit: Callable[..., None]) -> None:
    if ctx.policy is None:
        return
    entries = ctx.policy.entries
    rows = ctx.policy_rows
    for index, entry in enumerate(entries):
        for other_index, other in enumerate(entries):
            if other_index == index:
                continue
            if other.attribute != entry.attribute:
                continue
            if other.tuple == entry.tuple:
                continue
            if other.tuple.dominates(entry.tuple):
                emit(
                    SourceLocation(
                        "policy", name=ctx.policy.name, index=rows[index]
                    ),
                    f"rule is shadowed by rule {rows[other_index]}: "
                    f"{other.tuple} dominates {entry.tuple} for "
                    f"{entry.attribute!r}",
                    attribute=entry.attribute,
                    purpose=entry.purpose,
                    shadowed_by=rows[other_index],
                )
                break


@rule(
    "PVL103",
    title="unreachable purpose",
    severity=Severity.INFO,
    layer=Layer.MODEL,
    description=(
        "The taxonomy registers a purpose no policy rule uses; providers "
        "can state preferences for it but nothing can ever violate them."
    ),
)
def check_unreachable_purpose(
    ctx: LintContext, emit: Callable[..., None]
) -> None:
    if ctx.policy_doc is None:
        return
    used = {spec.purpose for spec in ctx.policy_doc.rules}
    for purpose in sorted(ctx.taxonomy.purposes.purposes - used):
        emit(
            SourceLocation("taxonomy", field="purpose"),
            f"purpose {purpose!r} is registered but unused by policy "
            f"{ctx.policy_doc.name!r}",
            purpose=purpose,
            policy=ctx.policy_doc.name,
        )


@rule(
    "PVL104",
    title="zero sensitivity weight",
    severity=Severity.WARNING,
    layer=Layer.MODEL,
    scope="mixed",
    description=(
        "A sensitivity weight of 0 silences every violation on the datum: "
        "Violation_i stays 0 no matter how far the policy exceeds the "
        "preference, so default thresholds can never trip."
    ),
)
def check_zero_sensitivity(ctx: LintContext, emit: Callable[..., None]) -> None:
    for attribute, weight in sorted(ctx.attribute_sensitivities.items()):
        if weight == 0:
            emit(
                SourceLocation("population", field="attribute_sensitivities"),
                f"attribute sensitivity Sigma^{attribute} is 0; violations "
                f"of {attribute!r} carry no severity for any provider",
                attribute=attribute,
                field="attribute_sensitivities",
            )
    if ctx.population is None:
        return
    for provider in ctx.population:
        for attribute, record in sorted(provider.sensitivity.items()):
            zeroed = [
                name
                for name in ("value", "visibility", "granularity", "retention")
                if getattr(record, name) == 0
            ]
            for name in zeroed:
                emit(
                    SourceLocation(
                        "population",
                        name=str(provider.provider_id),
                        field="sensitivities",
                    ),
                    f"sensitivity {name!r} for {attribute!r} is 0; "
                    f"exceedances on that datum contribute no severity",
                    attribute=attribute,
                    field=name,
                )


@rule(
    "PVL105",
    title="dead policy rule",
    severity=Severity.INFO,
    layer=Layer.MODEL,
    description=(
        "A policy rule covers an attribute no provider in the population "
        "supplies; it cannot affect any outcome (collecting nothing "
        "violates nobody)."
    ),
)
def check_dead_policy_rule(ctx: LintContext, emit: Callable[..., None]) -> None:
    if ctx.policy is None or ctx.population is None:
        return
    supplied: set[str] = set()
    for provider in ctx.population:
        supplied |= provider.preferences.attributes_provided
    empty = not len(ctx.population)
    reported: set[str] = set()
    for entry, index in zip(ctx.policy.entries, ctx.policy_rows):
        if entry.attribute in supplied or entry.attribute in reported:
            continue
        reported.add(entry.attribute)
        reason = (
            "the population is empty"
            if empty
            else "no provider supplies it"
        )
        emit(
            SourceLocation("policy", name=ctx.policy.name, index=index),
            f"rule covers attribute {entry.attribute!r} but {reason}; "
            f"it cannot affect any outcome",
            attribute=entry.attribute,
            population_empty=empty,
        )


@rule(
    "PVL106",
    title="inert preference",
    severity=Severity.INFO,
    layer=Layer.MODEL,
    scope="provider",
    description=(
        "A provider states a preference for an attribute the policy never "
        "collects; the preference can never be violated (nor honoured)."
    ),
)
def check_inert_preference(ctx: LintContext, emit: Callable[..., None]) -> None:
    if ctx.policy is None:
        return
    covered = set(ctx.policy.attributes())
    for document in ctx.preference_docs:
        for index, spec in enumerate(document.preferences):
            if spec.attribute in covered:
                continue
            emit(
                SourceLocation(
                    "population",
                    name=str(document.provider),
                    index=index,
                    field="attribute",
                ),
                f"preference for {spec.attribute!r} is inert: the policy "
                f"has no rule for that attribute",
                attribute=spec.attribute,
            )


@rule(
    "PVL107",
    title="dominated preference",
    severity=Severity.WARNING,
    layer=Layer.MODEL,
    scope="provider",
    description=(
        "A provider holds two preferences for the same attribute and "
        "purpose where one dominates the other; the looser tuple never "
        "changes w_i but double-counts severity when both are exceeded."
    ),
)
def check_dominated_preference(
    ctx: LintContext, emit: Callable[..., None]
) -> None:
    for document in ctx.preference_docs:
        specs = document.preferences
        # Only specs sharing (attribute, purpose) can dominate each other.
        columns: dict[tuple[str, str], list[int]] = {}
        for index, spec in enumerate(specs):
            columns.setdefault((spec.attribute, spec.purpose), []).append(index)
        for indices in columns.values():
            if len(indices) < 2:
                continue
            for index in indices:
                spec = specs[index]
                # The first dominated entry in document order.
                for other_index in indices:
                    other = specs[other_index]
                    if other_index == index or other == spec:
                        continue
                    if _spec_dominates(ctx, spec, other):
                        emit(
                            SourceLocation(
                                "population",
                                name=str(document.provider),
                                index=index,
                            ),
                            f"preference dominates entry {other_index} for "
                            f"{spec.attribute!r} @ {spec.purpose!r}; the "
                            f"stricter entry alone decides w_i",
                            attribute=spec.attribute,
                            purpose=spec.purpose,
                            dominates=other_index,
                        )
                        break


def _spec_dominates(ctx: LintContext, spec: TupleSpec, other: TupleSpec) -> bool:
    """Whether *spec*'s tuple dominates *other*'s, resolving level names."""
    try:
        left = ctx.taxonomy.tuple(
            spec.purpose, spec.visibility, spec.granularity, spec.retention
        )
        right = ctx.taxonomy.tuple(
            other.purpose, other.visibility, other.granularity, other.retention
        )
    except ValidationError:
        return False  # unresolvable specs are PVL001/PVL002's business
    return left != right and left.dominates(right)


@rule(
    "PVL110",
    title="static alpha-PPDB failure",
    severity=Severity.ERROR,
    layer=Layer.MODEL,
    description=(
        "Definition 3 evaluated statically: the fraction of providers the "
        "policy violates already exceeds alpha, so the deployment cannot "
        "be an alpha-PPDB.  The witness segment is attached."
    ),
)
def check_static_alpha_ppdb(
    ctx: LintContext, emit: Callable[..., None]
) -> None:
    if (
        ctx.config.alpha is None
        or ctx.policy is None
        or ctx.population is None
    ):
        return
    certificate = ctx.engine.certify(ctx.policy, ctx.config.alpha)
    if certificate.satisfied:
        return
    emit(
        SourceLocation("policy", name=ctx.policy.name),
        f"alpha-PPDB fails statically: P(W) = "
        f"{certificate.violation_probability:.4f} > alpha = "
        f"{certificate.alpha:g} "
        f"({len(certificate.violated_providers)}/{certificate.n_providers} "
        f"providers violated)",
        alpha=certificate.alpha,
        violation_probability=certificate.violation_probability,
        violated_providers=[str(p) for p in certificate.violated_providers],
        n_providers=certificate.n_providers,
    )
