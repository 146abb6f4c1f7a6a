"""Unit tests for Westin population synthesis."""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import pytest

from repro.core import HousePolicy, PrivacyTuple, ViolationEngine
from repro.datasets.export import DATASETS, scenario_documents
from repro.datasets.scenario import Scenario
from repro.exceptions import SimulationError
from repro.simulation import (
    PopulationSpec,
    WestinSegment,
    generate_population,
    standard_segments,
)
from repro.taxonomy import TaxonomyBuilder, standard_taxonomy


@pytest.fixture()
def taxonomy():
    return standard_taxonomy(["billing", "research"])


def _spec(taxonomy, **overrides):
    kwargs = dict(
        taxonomy=taxonomy,
        attributes={"weight": 2.0, "age": 1.0},
        n_providers=60,
        seed=13,
    )
    kwargs.update(overrides)
    return PopulationSpec(**kwargs)


class TestSegments:
    def test_standard_fractions_sum_to_one(self):
        assert sum(s.fraction for s in standard_segments()) == pytest.approx(1.0)

    def test_fundamentalists_have_no_headroom(self):
        segments = {s.name: s for s in standard_segments()}
        assert segments["fundamentalist"].headroom == (0, 0)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(SimulationError):
            WestinSegment(name="x", fraction=1.5, tightness=0.5)

    def test_invalid_tightness_rejected(self):
        with pytest.raises(SimulationError):
            WestinSegment(name="x", fraction=0.5, tightness=2.0)

    def test_invalid_headroom_rejected(self):
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError):
            WestinSegment(name="x", fraction=0.5, tightness=0.5, headroom=(2, 1))

    @pytest.mark.parametrize(
        ("field", "bounds", "message"),
        [
            ("threshold", (50.0, 10.0), "invalid threshold_range"),
            ("threshold", (-1.0, 10.0), "invalid threshold_range"),
            ("threshold", (10.0, float("inf")), "invalid threshold_range"),
            ("value_sensitivity", (3.0, 1.0), "invalid value_range"),
            ("value_sensitivity", (float("nan"), 1.0), "invalid value_range"),
            ("dimension_sensitivity", (-0.5, 1.0), "invalid weight_range"),
        ],
        ids=[
            "threshold-inverted",
            "threshold-negative",
            "threshold-infinite",
            "value-inverted",
            "value-nan",
            "weight-negative",
        ],
    )
    def test_invalid_ranges_rejected_without_a_draw(self, field, bounds, message):
        # A zero-fraction segment never reaches the samplers, so its
        # ranges must be checked when the segment is built.
        with pytest.raises(SimulationError, match=message):
            WestinSegment(name="x", fraction=0.0, tightness=0.5, **{field: bounds})


class TestSpecValidation:
    def test_fractions_must_sum_to_one(self, taxonomy):
        bad = (
            WestinSegment(name="a", fraction=0.5, tightness=0.5),
            WestinSegment(name="b", fraction=0.1, tightness=0.5),
        )
        with pytest.raises(SimulationError):
            _spec(taxonomy, segments=bad)

    def test_empty_attributes_rejected(self, taxonomy):
        with pytest.raises(SimulationError):
            _spec(taxonomy, attributes={})

    def test_unknown_purpose_rejected(self, taxonomy):
        from repro.exceptions import UnknownPurposeError

        with pytest.raises(UnknownPurposeError):
            _spec(taxonomy, purposes=["resale"])

    def test_effective_purposes_default_all(self, taxonomy):
        spec = _spec(taxonomy)
        assert set(spec.effective_purposes()) == {"billing", "research"}


class TestGeneration:
    def test_population_size(self, taxonomy):
        population = generate_population(_spec(taxonomy))
        assert len(population) == 60

    def test_deterministic_given_seed(self, taxonomy):
        a = generate_population(_spec(taxonomy))
        b = generate_population(_spec(taxonomy))
        for provider_a, provider_b in zip(a, b):
            assert provider_a.preferences == provider_b.preferences
            assert provider_a.threshold == provider_b.threshold
            assert provider_a.segment == provider_b.segment

    def test_different_seeds_differ(self, taxonomy):
        a = generate_population(_spec(taxonomy, seed=1))
        b = generate_population(_spec(taxonomy, seed=2))
        assert any(
            pa.preferences != pb.preferences for pa, pb in zip(a, b)
        )

    def test_segment_quota_exact(self, taxonomy):
        population = generate_population(_spec(taxonomy, n_providers=100))
        counts = Counter(p.segment for p in population)
        assert counts["fundamentalist"] == 25
        assert counts["pragmatist"] == 57
        assert counts["unconcerned"] == 18

    def test_every_provider_covers_all_attribute_purpose_pairs(self, taxonomy):
        population = generate_population(_spec(taxonomy, n_providers=10))
        for provider in population:
            pairs = {
                (e.attribute, e.purpose) for e in provider.preferences
            }
            assert pairs == {
                (a, p)
                for a in ("weight", "age")
                for p in ("billing", "research")
            }

    def test_attribute_sensitivities_transferred(self, taxonomy):
        population = generate_population(_spec(taxonomy))
        assert population.attribute_sensitivities.weight("weight") == 2.0

    def test_ids_use_prefix(self, taxonomy):
        population = generate_population(_spec(taxonomy, id_prefix="user-"))
        assert all(str(p.provider_id).startswith("user-") for p in population)

    def test_thresholds_within_segment_bounds(self, taxonomy):
        population = generate_population(_spec(taxonomy, n_providers=50))
        bounds = {s.name: s.threshold for s in standard_segments()}
        for provider in population:
            low, high = bounds[provider.segment]
            assert low <= provider.threshold <= high


class TestAnchoredGeneration:
    def test_anchored_population_has_zero_baseline_violations(self, taxonomy):
        policy = HousePolicy(
            [
                ("weight", PrivacyTuple("billing", 2, 2, 2)),
                ("age", PrivacyTuple("billing", 1, 1, 1)),
            ]
        )
        spec = _spec(
            taxonomy,
            purposes=["billing"],
            anchor_policy=policy,
            n_providers=40,
        )
        population = generate_population(spec)
        report = ViolationEngine(policy, population).report()
        assert report.n_violated == 0
        assert report.total_violations == 0.0

    def test_unanchored_purposes_still_sampled_by_tightness(self, taxonomy):
        policy = HousePolicy([("weight", PrivacyTuple("billing", 2, 2, 2))])
        spec = _spec(taxonomy, anchor_policy=policy, n_providers=40)
        population = generate_population(spec)
        # 'research' pairs are not anchored; the policy says nothing about
        # them so the baseline still causes no violations.
        report = ViolationEngine(policy, population).report()
        assert report.n_violated == 0

    def test_anchored_preferences_dominate_policy(self, taxonomy):
        policy = HousePolicy(
            [("weight", PrivacyTuple("billing", 2, 1, 2))]
        )
        spec = _spec(taxonomy, purposes=["billing"], anchor_policy=policy)
        population = generate_population(spec)
        for provider in population:
            for entry in provider.preferences.for_attribute("weight"):
                assert entry.tuple.dominates(
                    PrivacyTuple("billing", 2, 1, 2)
                )

    def test_widening_violates_zero_headroom_segment(self, taxonomy):
        policy = HousePolicy([("weight", PrivacyTuple("billing", 1, 1, 1))])
        spec = _spec(taxonomy, purposes=["billing"], anchor_policy=policy)
        population = generate_population(spec)
        widened = HousePolicy([("weight", PrivacyTuple("billing", 2, 2, 2))])
        engine = ViolationEngine(widened, population)
        for outcome in engine.outcomes():
            if outcome.segment == "fundamentalist":
                assert outcome.violated


def _documents_digest(scenario: Scenario) -> str:
    text = json.dumps(scenario_documents(scenario), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _unbounded_scenario(*, anchored: bool) -> Scenario:
    """Two purposes, default V/G ladders, retention with no top rank."""
    taxonomy = (
        TaxonomyBuilder()
        .with_purposes(["care", "audit"])
        .with_retention_unbounded()
        .build()
    )
    # Two entries on (weight, care): the anchor is their per-dimension max.
    policy = HousePolicy(
        [
            ("weight", PrivacyTuple("care", 1, 2, 3)),
            ("weight", PrivacyTuple("care", 3, 0, 5)),
            ("age", PrivacyTuple("audit", 0, 1, 8)),
        ],
        name="unbounded",
    )
    spec = PopulationSpec(
        taxonomy=taxonomy,
        attributes={"weight": 2.0, "age": 1.0},
        n_providers=40,
        seed=3,
        anchor_policy=policy if anchored else None,
    )
    return Scenario(
        name="unbounded",
        taxonomy=taxonomy,
        policy=policy,
        population=generate_population(spec),
    )


#: SHA-256 of the key-sorted JSON of ``scenario_documents`` for each
#: generated dataset at ``(n_providers, seed)``.
DATASET_DIGESTS = {
    ("crm", 1, 0): "adb48610d88cf0076947f3d8ee44f41846f5c61a4a546d03c158646f3eb0a851",
    ("crm", 37, 5): "0a37ff0358f2383b2dbc59d1694a6014c96d89dc87f5be8e21bfb56b5a8c1ed0",
    ("crm", 250, 11): "997fce815c8ac3d1fd721dc84697d4b11df6c311b2d380096198db439835188c",
    ("government", 1, 0): "f8368fd954b1b8e9221f9db7b71a4f75393c92056cd74645efda7a9247dea8af",
    ("government", 37, 5): "974804744908f904cb9ea9507ea3c76cd29d9b350b7b22cdb8d3d517d4ac80d9",
    ("government", 250, 11): "42ee3fc5bd3d98777c60d7d5f069ffab315b9ddbdf26c7c00dd03179c0a54825",
    ("healthcare", 1, 0): "736f9d3a9a2c2e407ca1d095985e7332650da7ef88e9dbafe27d825856a3440c",
    ("healthcare", 37, 5): "d4411f278608d8d52311b6e46ed2ac6866eb880c7c46366d51bcff518df4b730",
    ("healthcare", 250, 11): "5d866d10fd060b28e24ad3bfbaa3a6cc1719d35c9774546c590bdf63c817e113",
    ("social_network", 1, 0): "3f8f38f58f711299171a47dd6f5d604b0eadb1930c3cab716ebbff23be6774f7",
    ("social_network", 37, 5): "bd862a9d11e1ea8aa233de0ad3847cfed3938accc9af5648dd46abcb3fb9bdc8",
    ("social_network", 250, 11): "ad6e3cc4aca28085f0d34691332733466d43b3338ce3387fc8fb714ac34adf25",
}

#: The same for :func:`_unbounded_scenario`, by ``anchored``.
UNBOUNDED_DIGESTS = {
    True: "02a774d7a719b77d4938d4999168a30278c80f2b10661dfce30dd5a7b2b2ce20",
    False: "c908522c6b4af90ffd65ea9f516acc15bfaa88aa1634e18cc3486650b9350545",
}


class TestSeededBytes:
    """A seed fixes a population byte for byte.

    The digests were taken from the scalar-draw generator; any change to
    the draw order, the rank arithmetic or the float form of a sampled
    value changes them.
    """

    @pytest.mark.parametrize(
        "key", sorted(DATASET_DIGESTS), ids=lambda key: "%s-%d-%d" % key
    )
    def test_dataset_documents(self, key):
        name, n_providers, seed = key
        scenario = DATASETS[name](n_providers, seed)
        assert _documents_digest(scenario) == DATASET_DIGESTS[key]

    @pytest.mark.parametrize(
        "anchored", [True, False], ids=["anchored", "unanchored"]
    )
    def test_unbounded_retention_documents(self, anchored):
        scenario = _unbounded_scenario(anchored=anchored)
        assert _documents_digest(scenario) == UNBOUNDED_DIGESTS[anchored]
