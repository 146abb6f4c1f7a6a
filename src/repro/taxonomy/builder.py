"""The :class:`Taxonomy`: ordered domains + purpose registry in one object.

A taxonomy is the *vocabulary* a deployment shares between its policy
documents, its preference documents, and its storage layer: which purposes
exist, and what the named levels of each ordered dimension mean.  The core
arithmetic works on integer ranks and never needs a taxonomy; the taxonomy
is what lets humans write ``"third-party"`` and auditors read it back.

:func:`standard_taxonomy` assembles the canonical ladders from
:mod:`repro.taxonomy.levels` with a caller-supplied purpose set.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .._validation import EXACT_LEVEL_TYPES
from ..core.dimensions import (
    Dimension,
    ORDERED_DIMENSIONS,
    OrderedDomain,
    UnboundedRetention,
)
from ..core.purpose import PurposeLattice, PurposeRegistry
from ..core.tuples import PrivacyTuple
from ..exceptions import ValidationError
from .levels import granularity_domain, retention_domain, visibility_domain

#: Either kind of domain a taxonomy may hold for an ordered dimension.
DomainLike = OrderedDomain | UnboundedRetention

#: The most spellings one taxonomy's :meth:`Taxonomy.tuple` memo holds;
#: past it a new spelling is still validated, just not remembered.
TUPLE_MEMO_LIMIT = 65536


class Taxonomy:
    """Domains for the ordered dimensions plus the purpose vocabulary.

    Parameters
    ----------
    purposes:
        The purpose registry (or an iterable of purpose names).
    domains:
        Map from ordered :class:`Dimension` to its domain.  All three
        ordered dimensions must be covered.
    purpose_lattice:
        Optional partial order over the purposes (the [5] extension).
        When present, its purposes must match the registry.
    """

    __slots__ = ("_purposes", "_domains", "_lattice", "_tuples")

    def __init__(
        self,
        purposes: PurposeRegistry | Iterable[str],
        domains: Mapping[Dimension, DomainLike],
        *,
        purpose_lattice: PurposeLattice | None = None,
    ) -> None:
        if not isinstance(purposes, PurposeRegistry):
            purposes = PurposeRegistry(purposes)
        self._purposes = purposes
        missing = [d for d in ORDERED_DIMENSIONS if d not in domains]
        if missing:
            raise ValidationError(
                f"taxonomy is missing domains for: "
                f"{', '.join(d.value for d in missing)}"
            )
        for dimension, domain in domains.items():
            if not isinstance(dimension, Dimension) or not dimension.is_ordered:
                raise ValidationError(
                    f"taxonomy domains must be keyed by ordered dimensions, "
                    f"got {dimension!r}"
                )
            if domain.dimension is not dimension:
                raise ValidationError(
                    f"domain {domain!r} belongs to {domain.dimension.value}, "
                    f"not {dimension.value}"
                )
        self._domains = {d: domains[d] for d in ORDERED_DIMENSIONS}
        if purpose_lattice is not None:
            if purpose_lattice.purposes != purposes.purposes:
                raise ValidationError(
                    "purpose lattice and registry cover different purposes"
                )
        self._lattice = purpose_lattice
        self._tuples: dict[tuple, PrivacyTuple] = {}

    @property
    def purposes(self) -> PurposeRegistry:
        """The purpose vocabulary."""
        return self._purposes

    @property
    def purpose_lattice(self) -> PurposeLattice | None:
        """The optional purpose partial order."""
        return self._lattice

    def domain(self, dimension: Dimension) -> DomainLike:
        """The domain for an ordered *dimension*."""
        if not isinstance(dimension, Dimension) or not dimension.is_ordered:
            raise ValidationError(
                f"taxonomies hold domains for ordered dimensions only, "
                f"got {dimension!r}"
            )
        return self._domains[dimension]

    def tuple(
        self,
        purpose: str,
        visibility: str | int,
        granularity: str | int,
        retention: str | int,
    ) -> PrivacyTuple:
        """Build a validated :class:`PrivacyTuple` from names or ranks.

        This is the bridge between human-readable policy documents and the
        rank-based arithmetic: each ordered value may be a level name
        (resolved through the taxonomy's ladder) or a raw integer rank
        (validated against the ladder's range).

        A document repeats a few hundred distinct specs, so the result is
        memoized per spelling.  Only exact ``str`` / ``int`` arguments
        are keys: ``True``, ``1.0`` and ``np.int64(1)`` compare and hash
        equal to ``1``, so they are validated afresh and never served
        ``1``'s tuple.  A spelling that fails validation is not
        remembered.
        """
        key = (purpose, visibility, granularity, retention)
        exact = (
            type(purpose) is str
            and type(visibility) in EXACT_LEVEL_TYPES
            and type(granularity) in EXACT_LEVEL_TYPES
            and type(retention) in EXACT_LEVEL_TYPES
        )
        if exact:
            cached = self._tuples.get(key)
            if cached is not None:
                return cached
        self._purposes.validate(purpose)
        # _domains is keyed in ORDERED_DIMENSIONS order: V, G, R.
        v_ladder, g_ladder, r_ladder = self._domains.values()
        result = PrivacyTuple(
            purpose=purpose,
            visibility=v_ladder.rank_of(visibility),
            granularity=g_ladder.rank_of(granularity),
            retention=r_ladder.rank_of(retention),
        )
        if exact and len(self._tuples) < TUPLE_MEMO_LIMIT:
            self._tuples[key] = result
        return result

    def describe(self, privacy_tuple: PrivacyTuple) -> dict[str, str]:
        """Render a tuple's ranks back to level names for reports."""
        return {
            "purpose": privacy_tuple.purpose,
            "visibility": self._domains[Dimension.VISIBILITY].level_of(
                privacy_tuple.visibility
            ),
            "granularity": self._domains[Dimension.GRANULARITY].level_of(
                privacy_tuple.granularity
            ),
            "retention": self._domains[Dimension.RETENTION].level_of(
                privacy_tuple.retention
            ),
        }

    def validate_tuple(self, privacy_tuple: PrivacyTuple) -> PrivacyTuple:
        """Check a tuple's purpose and ranks against this taxonomy."""
        self._purposes.validate(privacy_tuple.purpose)
        for dimension in ORDERED_DIMENSIONS:
            self._domains[dimension].rank_of(privacy_tuple.rank(dimension))
        return privacy_tuple

    def with_purposes(self, purposes: Iterable[str]) -> "Taxonomy":
        """A copy with additional purposes registered."""
        merged = set(self._purposes.purposes) | set(purposes)
        return Taxonomy(
            PurposeRegistry(merged), self._domains, purpose_lattice=None
        )


class TaxonomyBuilder:
    """Fluent construction of custom taxonomies.

    Example
    -------
    >>> taxonomy = (
    ...     TaxonomyBuilder()
    ...     .with_purposes(["billing", "research"])
    ...     .with_visibility(["none", "clinic", "insurer", "public"])
    ...     .with_granularity(["none", "range", "exact"])
    ...     .with_retention_unbounded()
    ...     .build()
    ... )
    """

    def __init__(self) -> None:
        self._purposes: list[str] = []
        self._domains: dict[Dimension, DomainLike] = {}
        self._lattice: PurposeLattice | None = None

    def with_purposes(self, purposes: Iterable[str]) -> "TaxonomyBuilder":
        """Set the purpose vocabulary."""
        self._purposes = list(purposes)
        return self

    def with_purpose_lattice(self, lattice: PurposeLattice) -> "TaxonomyBuilder":
        """Attach a purpose partial order (implies the purpose set)."""
        self._lattice = lattice
        self._purposes = sorted(lattice.purposes)
        return self

    def with_visibility(self, levels: Iterable[str]) -> "TaxonomyBuilder":
        """Set a custom visibility ladder."""
        self._domains[Dimension.VISIBILITY] = OrderedDomain(
            Dimension.VISIBILITY, list(levels)
        )
        return self

    def with_granularity(self, levels: Iterable[str]) -> "TaxonomyBuilder":
        """Set a custom granularity ladder."""
        self._domains[Dimension.GRANULARITY] = OrderedDomain(
            Dimension.GRANULARITY, list(levels)
        )
        return self

    def with_retention(self, levels: Iterable[str]) -> "TaxonomyBuilder":
        """Set a custom named retention ladder."""
        self._domains[Dimension.RETENTION] = OrderedDomain(
            Dimension.RETENTION, list(levels)
        )
        return self

    def with_retention_unbounded(self) -> "TaxonomyBuilder":
        """Measure retention on an open-ended integer scale."""
        self._domains[Dimension.RETENTION] = UnboundedRetention()
        return self

    def build(self) -> Taxonomy:
        """Assemble the taxonomy, defaulting any unset ladder to canonical."""
        domains = dict(self._domains)
        domains.setdefault(Dimension.VISIBILITY, visibility_domain())
        domains.setdefault(Dimension.GRANULARITY, granularity_domain())
        domains.setdefault(Dimension.RETENTION, retention_domain())
        return Taxonomy(
            self._purposes, domains, purpose_lattice=self._lattice
        )


def standard_taxonomy(purposes: Iterable[str]) -> Taxonomy:
    """The canonical taxonomy of Barker et al. with the given purposes."""
    return Taxonomy(
        purposes,
        {
            Dimension.VISIBILITY: visibility_domain(),
            Dimension.GRANULARITY: granularity_domain(),
            Dimension.RETENTION: retention_domain(),
        },
    )
