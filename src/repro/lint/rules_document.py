"""Document-semantic rules (``PVL001``-``PVL006``).

These are the linter's first layer: each document checked against the
taxonomy in isolation.  ``PVL001``-``PVL003`` are the legacy
``policy_lang.validator`` checks re-expressed as coded diagnostics (the
``validate_*`` functions are now thin wrappers over them); the rest catch
document-level redundancy and mis-ordered ladders.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from .._validation import EXACT_LEVEL_TYPES
from ..core.dimensions import ORDERED_DIMENSIONS, Dimension
from ..exceptions import UnknownPurposeError, ValidationError
from ..policy_lang.ast import TupleSpec
from .diagnostics import SourceLocation, Severity
from .registry import Layer, LintContext, rule

#: TupleSpec field name -> ordered dimension, in the legacy check order.
SPEC_DIMENSIONS: tuple[tuple[str, Dimension], ...] = tuple(
    (dimension.value, dimension) for dimension in ORDERED_DIMENSIONS
)


@rule(
    "PVL001",
    title="unknown purpose",
    severity=Severity.ERROR,
    layer=Layer.DOCUMENT,
    scope="mixed",
    description=(
        "A rule or preference names a purpose the taxonomy does not "
        "register; the tuple can never be compared to anything."
    ),
)
def check_unknown_purpose(ctx: LintContext, emit: Callable[..., None]) -> None:
    unknown: dict[str, bool] = {}
    for kind, name, specs in _spec_documents(ctx):
        for index, spec in enumerate(specs):
            purpose = spec.purpose
            verdict = unknown.get(purpose)
            if verdict is None:
                verdict = unknown[purpose] = not _known_purpose(ctx, purpose)
            if verdict:
                emit(
                    SourceLocation(kind, name=name, index=index, field="purpose"),
                    f"unknown purpose {purpose!r}",
                    purpose=purpose,
                    known_purposes=sorted(ctx.taxonomy.purposes.purposes),
                )


def _known_purpose(ctx: LintContext, purpose: str) -> bool:
    try:
        ctx.taxonomy.purposes.validate(purpose)
    except UnknownPurposeError:
        return False
    return True


def _spec_documents(
    ctx: LintContext,
) -> Iterator[tuple[str, str, tuple[TupleSpec, ...]]]:
    """``(document kind, location name, specs)`` of every policy,
    candidate and preference document, in report order."""
    for kind, document in (
        ("policy", ctx.policy_doc),
        ("candidate", ctx.candidate_doc),
    ):
        if document is not None:
            yield kind, document.name, document.rules
    for document in ctx.preference_docs:
        yield "population", str(document.provider), document.preferences


@rule(
    "PVL002",
    title="unknown level",
    severity=Severity.ERROR,
    layer=Layer.DOCUMENT,
    scope="mixed",
    description=(
        "An ordered-dimension value is neither a level name on the "
        "taxonomy's ladder nor a rank within its range."
    ),
)
def check_unknown_level(ctx: LintContext, emit: Callable[..., None]) -> None:
    domains = [
        (field_name, ctx.taxonomy.domain(dimension))
        for field_name, dimension in SPEC_DIMENSIONS
    ]
    # The fields off their ladders per (V, G, R) spelling, keyed on
    # exact type as Taxonomy.tuple keys its memo.
    off_ladder: dict[tuple[str | int, str | int, str | int], tuple] = {}
    for kind, name, specs in _spec_documents(ctx):
        for index, spec in enumerate(specs):
            values = (spec.visibility, spec.granularity, spec.retention)
            exact = exact_levels(spec)
            fields = off_ladder.get(values) if exact else None
            if fields is None:
                fields = tuple(
                    (field_name, domain)
                    for (field_name, domain), value in zip(domains, values)
                    if not _on_ladder(domain, value)
                )
                if exact:
                    off_ladder[values] = fields
            for field_name, domain in fields:
                value = getattr(spec, field_name)
                emit(
                    SourceLocation(kind, name=name, index=index, field=field_name),
                    f"{field_name} value {value!r} is not on the "
                    f"{domain.name!r} ladder",
                    dimension=field_name,
                    value=value,
                    domain=domain.name,
                )


def exact_levels(spec: TupleSpec) -> bool:
    """Whether *spec*'s ordered values are exact ``str`` / ``int``, the
    spellings a verdict memo may key on: an ``int`` subclass equal to 1
    hashes as 1 but is validated afresh, as in ``Taxonomy.tuple``."""
    return (
        type(spec.visibility) in EXACT_LEVEL_TYPES
        and type(spec.granularity) in EXACT_LEVEL_TYPES
        and type(spec.retention) in EXACT_LEVEL_TYPES
    )


def _on_ladder(domain, value: str | int) -> bool:
    try:
        domain.rank_of(value)
    except ValidationError:  # DomainError, or a negative unbounded rank
        return False
    return True


@rule(
    "PVL003",
    title="undeclared attribute",
    severity=Severity.ERROR,
    layer=Layer.DOCUMENT,
    scope="mixed",
    description=(
        "A preference covers an attribute the provider did not list in "
        "attributes_provided; the model would reject the document."
    ),
)
def check_undeclared_attribute(
    ctx: LintContext, emit: Callable[..., None]
) -> None:
    for document in ctx.preference_docs:
        provided = document.attributes_provided
        if provided is None:
            continue
        for index, spec in enumerate(document.preferences):
            if spec.attribute in provided:
                continue
            emit(
                SourceLocation(
                    "population",
                    name=str(document.provider),
                    index=index,
                    field="attribute",
                ),
                f"preference for attribute {spec.attribute!r} not listed "
                f"in attributes_provided",
                attribute=spec.attribute,
                attributes_provided=sorted(provided),
            )


@rule(
    "PVL004",
    title="duplicate policy rule",
    severity=Severity.WARNING,
    layer=Layer.DOCUMENT,
    description=(
        "A policy document repeats an identical rule row; HousePolicy "
        "deduplicates silently, so the extra row is dead weight."
    ),
)
def check_duplicate_policy_rule(
    ctx: LintContext, emit: Callable[..., None]
) -> None:
    for kind, document in (
        ("policy", ctx.policy_doc),
        ("candidate", ctx.candidate_doc),
    ):
        if document is None:
            continue
        first_seen: dict[TupleSpec, int] = {}
        for index, spec in enumerate(document.rules):
            if spec in first_seen:
                emit(
                    SourceLocation(kind, name=document.name, index=index),
                    f"exact duplicate of rule {first_seen[spec]} "
                    f"({spec.attribute!r} @ {spec.purpose!r})",
                    attribute=spec.attribute,
                    purpose=spec.purpose,
                    duplicate_of=first_seen[spec],
                )
            else:
                first_seen[spec] = index


@rule(
    "PVL005",
    title="duplicate preference",
    severity=Severity.WARNING,
    layer=Layer.DOCUMENT,
    scope="provider",
    description=(
        "A provider repeats an identical preference row; the duplicate "
        "adds nothing to the model."
    ),
)
def check_duplicate_preference(
    ctx: LintContext, emit: Callable[..., None]
) -> None:
    for document in ctx.preference_docs:
        first_seen: dict[TupleSpec, int] = {}
        for index, spec in enumerate(document.preferences):
            if spec in first_seen:
                emit(
                    SourceLocation(
                        "population", name=str(document.provider), index=index
                    ),
                    f"exact duplicate of entry {first_seen[spec]} "
                    f"({spec.attribute!r} @ {spec.purpose!r})",
                    attribute=spec.attribute,
                    purpose=spec.purpose,
                    duplicate_of=first_seen[spec],
                )
            else:
                first_seen[spec] = index


@rule(
    "PVL006",
    title="non-monotone ladder",
    severity=Severity.WARNING,
    layer=Layer.DOCUMENT,
    description=(
        "A ladder's zero-exposure level ('none') sits above rank 0, so the "
        "ladder is not monotone in exposure and the implicit zero tuple "
        "<pr, 0, 0, 0> no longer means 'reveal nothing'."
    ),
)
def check_non_monotone_ladder(
    ctx: LintContext, emit: Callable[..., None]
) -> None:
    for dimension in ORDERED_DIMENSIONS:
        domain = ctx.taxonomy.domain(dimension)
        levels = getattr(domain, "levels", None)
        if not levels:
            continue  # unbounded numeric domains are monotone by construction
        if "none" in levels and levels.index("none") != 0:
            emit(
                SourceLocation("taxonomy", field=dimension.value),
                f"{dimension.value} ladder places 'none' at rank "
                f"{levels.index('none')}; exposure is not monotone in rank",
                dimension=dimension.value,
                rank=levels.index("none"),
                levels=list(levels),
            )
