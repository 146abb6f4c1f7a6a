"""Population-layer rules (``PVL210``-``PVL214``).

These rules reason about the policy/population pair.  ``PVL210`` and
``PVL211`` read lattice geometry off the documents: clauses that can
never be consulted and preferences the policy can never violate.
``PVL212``-``PVL214`` read the context's one batch evaluation
(:attr:`~repro.lint.registry.LintContext.report`, and its engine's
certificate): policies that are vacuous against the population, and
deployments whose alpha-PPDB or default verdicts are decided before any
data is collected.  ``PVL201``/``PVL202`` are taken by the economics
layer, so the population catalogue starts at ``PVL210``.

Scopes (descriptive metadata, printed in SARIF rule descriptors):
``PVL210``, ``PVL211``, and ``PVL214`` are *provider*-scoped — each
provider's findings depend only on that provider's document (plus the
shared taxonomy/policy envelope).  ``PVL212`` and ``PVL213`` are
population aggregates and stay global.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..core.tuples import PrivacyTuple
from ..exceptions import ValidationError
from ..perf.batch import policy_columns
from ..policy_lang.ast import TupleSpec
from .diagnostics import Severity, SourceLocation
from .registry import Layer, LintContext, rule
from .rules_document import exact_levels


@rule(
    "PVL210",
    title="dead preference clause",
    severity=Severity.INFO,
    layer=Layer.POPULATION,
    scope="provider",
    description=(
        "A preference names a purpose the policy never uses on that "
        "attribute: the clause is unreachable (Eq. 13 comparability "
        "requires matching purposes) and expresses no protection."
    ),
)
def check_dead_preference_clause(
    ctx: LintContext, emit: Callable[..., None]
) -> None:
    if ctx.policy is None:
        return
    purposes_by_attribute: dict[str, set[str]] = {}
    for entry in ctx.policy.entries:
        purposes_by_attribute.setdefault(entry.attribute, set()).add(
            entry.purpose
        )
    # (attribute, purpose) -> the policy's purposes on the attribute when
    # the clause is dead, else None.
    dead: dict[tuple[str, str], list[str] | None] = {}
    for document in ctx.preference_docs:
        for index, spec in enumerate(document.preferences):
            key = (spec.attribute, spec.purpose)
            if key in dead:
                used = dead[key]
            else:
                used = purposes_by_attribute.get(spec.attribute)
                # An attribute never collected is PVL106's business.
                used = dead[key] = (
                    sorted(used)
                    if used is not None and spec.purpose not in used
                    else None
                )
            if used is None:
                continue
            emit(
                SourceLocation(
                    "population",
                    name=str(document.provider),
                    index=index,
                    field="purpose",
                ),
                f"preference purpose {spec.purpose!r} is dead: the policy "
                f"collects {spec.attribute!r} only under "
                f"{used}, so this clause is never comparable",
                attribute=spec.attribute,
                purpose=spec.purpose,
                policy_purposes=list(used),
            )


@rule(
    "PVL211",
    title="subsumed preference",
    severity=Severity.INFO,
    layer=Layer.POPULATION,
    scope="provider",
    description=(
        "A preference strictly dominates every comparable policy rule: "
        "the provider permits strictly more than the house ever takes, "
        "so the clause can never be violated and adds no constraint."
    ),
)
def check_subsumed_preference(
    ctx: LintContext, emit: Callable[..., None]
) -> None:
    if ctx.policy is None:
        return
    comparable_by_column: dict[tuple[str, str], list[PrivacyTuple]] = {}
    for entry in ctx.policy.entries:
        comparable_by_column.setdefault(
            (entry.attribute, entry.purpose), []
        ).append(entry.tuple)
    # Verdicts per exact-typed spelling, keyed as Taxonomy.tuple keys
    # its memo.
    subsumed: dict[tuple[str, str, str | int, str | int, str | int], bool] = {}
    for document in ctx.preference_docs:
        for index, spec in enumerate(document.preferences):
            comparable = comparable_by_column.get(
                (spec.attribute, spec.purpose)
            )
            if not comparable:
                continue
            key = (
                spec.attribute,
                spec.purpose,
                spec.visibility,
                spec.granularity,
                spec.retention,
            )
            exact = exact_levels(spec)
            verdict = subsumed.get(key) if exact else None
            if verdict is None:
                verdict = _subsumes(ctx, spec, comparable)
                if exact:
                    subsumed[key] = verdict
            if not verdict:
                continue
            emit(
                SourceLocation(
                    "population", name=str(document.provider), index=index
                ),
                f"preference for {spec.attribute!r} @ {spec.purpose!r} "
                f"strictly dominates every comparable policy rule; it can "
                f"never be violated",
                attribute=spec.attribute,
                purpose=spec.purpose,
                n_policy_rules=len(comparable),
            )


def _subsumes(
    ctx: LintContext, spec: TupleSpec, comparable: list[PrivacyTuple]
) -> bool:
    """Whether *spec*'s tuple strictly dominates every comparable one."""
    try:
        preference = ctx.taxonomy.tuple(
            spec.purpose, spec.visibility, spec.granularity, spec.retention
        )
    except ValidationError:
        return False  # unresolvable specs are PVL001/PVL002's business
    return all(
        preference != policy_tuple and preference.dominates(policy_tuple)
        for policy_tuple in comparable
    )


@rule(
    "PVL212",
    title="vacuous policy",
    severity=Severity.INFO,
    layer=Layer.POPULATION,
    description=(
        "The static severity interval is [0, 0] for every provider: the "
        "policy cannot violate anyone in this population, so every "
        "alpha-PPDB claim it supports is vacuously true."
    ),
)
def check_vacuous_policy(ctx: LintContext, emit: Callable[..., None]) -> None:
    if (
        ctx.policy is None
        or ctx.population is None
        or not len(ctx.policy)
        or not len(ctx.population)
    ):
        return
    report = ctx.report
    if report.n_violated:
        return
    emit(
        SourceLocation("policy", name=ctx.policy.name),
        f"policy is vacuous against this population: no clause geometry "
        f"can violate any of the {report.n_providers} provider(s) "
        f"(house severity bounds are [0, 0])",
        n_providers=report.n_providers,
        house_lower=0.0,
        house_upper=0.0,
    )


@rule(
    "PVL213",
    title="statically certifiable population",
    severity=Severity.INFO,
    layer=Layer.POPULATION,
    description=(
        "Definition 3 holds statically: the exact violated-provider "
        "fraction derived from the severity intervals is within alpha, "
        "so the deployment is alpha-PPDB-certifiable without running "
        "the engine.  The positive counterpart of PVL110."
    ),
)
def check_statically_certifiable(
    ctx: LintContext, emit: Callable[..., None]
) -> None:
    if (
        ctx.config.alpha is None
        or ctx.policy is None
        or ctx.population is None
        or not len(ctx.population)
    ):
        return
    certificate = ctx.engine.certify(ctx.policy, ctx.config.alpha)
    if not certificate.satisfied:
        return  # the failing direction is PVL110's business
    house_lower, house_upper = _house_bounds(ctx)
    emit(
        SourceLocation("policy", name=ctx.policy.name),
        f"alpha-PPDB holds statically: P(W) = "
        f"{certificate.violation_probability:.4f} <= alpha = "
        f"{certificate.alpha:g} "
        f"({certificate.n_providers - len(certificate.violated_providers)}"
        f"/{certificate.n_providers} providers provably safe of violation)",
        alpha=certificate.alpha,
        violation_probability=certificate.violation_probability,
        margin=certificate.margin,
        n_providers=certificate.n_providers,
        house_lower=house_lower,
        house_upper=house_upper,
    )


def _house_bounds(ctx: LintContext) -> tuple[float, float]:
    """Bounds on Eq. 16's total from each attribute's weight range.

    Per policy attribute, Eq. 12's rank exceedance along each dimension,
    summed over the attribute's columns (explicit rows and implicit-zero
    suppliers), times the least and the greatest weight along that
    dimension over the attribute's suppliers.  Any one column's explicit
    and implicit rows are exactly those suppliers, since a provider
    states preferences only on attributes it supplies.
    """
    compiled = ctx.engine.compiled
    exceedance: dict[str, np.ndarray] = {}
    weights: dict[str, np.ndarray] = {}
    for (attribute, purpose), entries in policy_columns(ctx.policy).items():
        column = compiled.column(attribute, purpose)
        ranks = np.array(entries, dtype=np.int64)
        total = exceedance.setdefault(attribute, np.zeros(3, dtype=np.int64))
        total += np.maximum(ranks[:, None] - column.row_ranks, 0).sum(axis=(0, 1))
        total += ranks.sum(axis=0) * column.n_implicit
        weights[attribute] = np.concatenate(
            (column.row_weights, column.implicit_weights)
        )
    lower = upper = 0.0
    for attribute, total in exceedance.items():
        supplied = weights[attribute]
        if len(supplied):
            lower += float((total * supplied.min(axis=0)).sum())
            upper += float((total * supplied.max(axis=0)).sum())
    return lower, upper


@rule(
    "PVL214",
    title="statically inevitable default",
    severity=Severity.WARNING,
    layer=Layer.POPULATION,
    scope="provider",
    description=(
        "A provider's static severity already exceeds their tolerance "
        "v_i: they default under this policy no matter how the "
        "population-level weights are calibrated (Definition 4 decided "
        "from the documents alone)."
    ),
)
def check_inevitable_default(
    ctx: LintContext, emit: Callable[..., None]
) -> None:
    if ctx.policy is None or ctx.population is None or not len(ctx.population):
        return
    # Each provider's verdict depends only on their own document and
    # weights, as the rule's ``provider`` scope declares.
    report = ctx.report
    for row in np.flatnonzero(report.defaulted).tolist():
        violation = float(report.violations[row])
        threshold = float(report.thresholds[row])
        emit(
            SourceLocation("population", name=str(report.provider_ids[row])),
            f"default is statically inevitable: Violation_i = "
            f"{violation:g} > threshold {threshold:g}",
            severity_lower=violation,
            severity_upper=violation,
            threshold=threshold,
            strict=True,
        )
