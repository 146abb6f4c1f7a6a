"""Unit tests for Taxonomy and TaxonomyBuilder."""

from __future__ import annotations

import pytest

from repro.core import Dimension, PrivacyTuple
from repro.core.dimensions import UnboundedRetention
from repro.core.purpose import chain
from repro.exceptions import DomainError, UnknownPurposeError, ValidationError
from repro.taxonomy import Taxonomy, TaxonomyBuilder, standard_taxonomy


@pytest.fixture()
def taxonomy() -> Taxonomy:
    return standard_taxonomy(["billing", "research"])


class TestStandardTaxonomy:
    def test_tuple_from_names(self, taxonomy):
        t = taxonomy.tuple("billing", "house", "partial", "short-term")
        assert t == PrivacyTuple("billing", 2, 2, 2)

    def test_tuple_from_ranks(self, taxonomy):
        t = taxonomy.tuple("billing", 2, 2, 2)
        assert t.visibility == 2

    def test_tuple_mixed_names_and_ranks(self, taxonomy):
        t = taxonomy.tuple("billing", "all", 0, "indefinite")
        assert (t.visibility, t.granularity, t.retention) == (4, 0, 4)

    def test_unknown_purpose_rejected(self, taxonomy):
        with pytest.raises(UnknownPurposeError):
            taxonomy.tuple("resale", 0, 0, 0)

    def test_unknown_level_rejected(self, taxonomy):
        with pytest.raises(DomainError):
            taxonomy.tuple("billing", "galaxy", 0, 0)

    def test_out_of_range_rank_rejected(self, taxonomy):
        with pytest.raises(DomainError):
            taxonomy.tuple("billing", 99, 0, 0)

    def test_describe_round_trips(self, taxonomy):
        t = taxonomy.tuple("billing", "house", "partial", "short-term")
        described = taxonomy.describe(t)
        assert described == {
            "purpose": "billing",
            "visibility": "house",
            "granularity": "partial",
            "retention": "short-term",
        }
        assert taxonomy.tuple(**described) == t

    def test_validate_tuple_accepts_in_range(self, taxonomy):
        t = PrivacyTuple("billing", 4, 3, 4)
        assert taxonomy.validate_tuple(t) is t

    def test_validate_tuple_rejects_out_of_range(self, taxonomy):
        with pytest.raises(DomainError):
            taxonomy.validate_tuple(PrivacyTuple("billing", 5, 0, 0))

    def test_validate_tuple_rejects_unknown_purpose(self, taxonomy):
        with pytest.raises(UnknownPurposeError):
            taxonomy.validate_tuple(PrivacyTuple("resale", 0, 0, 0))

    def test_domain_accessor(self, taxonomy):
        assert taxonomy.domain(Dimension.VISIBILITY).max_rank == 4

    def test_domain_rejects_purpose(self, taxonomy):
        with pytest.raises(ValidationError):
            taxonomy.domain(Dimension.PURPOSE)

    def test_with_purposes_extends(self, taxonomy):
        extended = taxonomy.with_purposes(["marketing"])
        assert "marketing" in extended.purposes
        assert "billing" in extended.purposes
        assert "marketing" not in taxonomy.purposes


class TestTaxonomyConstruction:
    def test_missing_domain_rejected(self):
        from repro.taxonomy.levels import visibility_domain

        with pytest.raises(ValidationError):
            Taxonomy(["p"], {Dimension.VISIBILITY: visibility_domain()})

    def test_mismatched_domain_dimension_rejected(self):
        from repro.taxonomy.levels import (
            granularity_domain,
            retention_domain,
            visibility_domain,
        )

        with pytest.raises(ValidationError):
            Taxonomy(
                ["p"],
                {
                    Dimension.VISIBILITY: granularity_domain(),  # wrong axis
                    Dimension.GRANULARITY: granularity_domain(),
                    Dimension.RETENTION: retention_domain(),
                },
            )

    def test_lattice_purposes_must_match_registry(self):
        from repro.taxonomy.levels import (
            granularity_domain,
            retention_domain,
            visibility_domain,
        )

        lattice = chain(["a", "b"])
        with pytest.raises(ValidationError):
            Taxonomy(
                ["a", "b", "c"],
                {
                    Dimension.VISIBILITY: visibility_domain(),
                    Dimension.GRANULARITY: granularity_domain(),
                    Dimension.RETENTION: retention_domain(),
                },
                purpose_lattice=lattice,
            )


class TestTaxonomyBuilder:
    def test_defaults_to_canonical_ladders(self):
        taxonomy = TaxonomyBuilder().with_purposes(["p"]).build()
        assert taxonomy.domain(Dimension.VISIBILITY).max_rank == 4

    def test_custom_ladders(self):
        taxonomy = (
            TaxonomyBuilder()
            .with_purposes(["p"])
            .with_visibility(["none", "clinic", "public"])
            .with_granularity(["none", "exact"])
            .with_retention(["none", "forever"])
            .build()
        )
        assert taxonomy.domain(Dimension.VISIBILITY).max_rank == 2
        assert taxonomy.tuple("p", "clinic", "exact", "forever") == PrivacyTuple(
            "p", 1, 1, 1
        )

    def test_unbounded_retention(self):
        taxonomy = (
            TaxonomyBuilder()
            .with_purposes(["p"])
            .with_retention_unbounded()
            .build()
        )
        domain = taxonomy.domain(Dimension.RETENTION)
        assert isinstance(domain, UnboundedRetention)
        t = taxonomy.tuple("p", 0, 0, 9999)
        assert t.retention == 9999

    def test_purpose_lattice_sets_purposes(self):
        lattice = chain(["narrow", "wide"])
        taxonomy = TaxonomyBuilder().with_purpose_lattice(lattice).build()
        assert set(taxonomy.purposes.purposes) == {"narrow", "wide"}
        assert taxonomy.purpose_lattice is lattice
