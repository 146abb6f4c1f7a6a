"""Westin-segment population synthesis.

Kumaraguru & Cranor's compilation of the Westin surveys (the paper's ref
[11]) segments the public into three groups.  We parameterise each segment
by preference tightness, sensitivity ranges, and default-threshold range,
and synthesise :class:`~repro.core.population.Population` objects from a
:class:`PopulationSpec`.  The default fractions follow the frequently
cited Westin 2001 split (roughly a quarter fundamentalist, a fifth
unconcerned, the balance pragmatist).

The synthesis is a *substitution* documented in DESIGN.md: the paper
requires some joint distribution of ``(preferences, sigma_i, v_i)`` and
points at Westin segmentation as its empirical source; any seeded draw
from these segments exercises the identical model code paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence

import numpy as np

from .._validation import check_int, check_non_empty_str, check_real
from ..core.dimensions import Dimension, ORDERED_DIMENSIONS
from ..core.policy import HousePolicy
from ..core.population import Population, Provider
from ..core.preferences import ProviderPreferences
from ..core.sensitivity import DimensionSensitivity
from ..core.tuples import PrivacyTuple
from ..exceptions import SimulationError
from ..taxonomy.builder import Taxonomy
from .sampling import (
    check_range,
    preference_ceilings,
    sample_dimension_sensitivity,
    sample_threshold,
)


@dataclass(frozen=True, slots=True)
class WestinSegment:
    """One privacy-disposition segment of the provider population.

    Parameters
    ----------
    name:
        Segment label carried onto each generated provider.
    fraction:
        Share of the population in this segment; the spec's fractions must
        sum to 1.
    tightness:
        Preference tightness in ``[0, 1]`` (see
        :func:`repro.simulation.sampling.sample_preference_tuple`).  Used
        for (attribute, purpose) pairs the anchor policy does not cover.
    value_sensitivity:
        Bounds for the data-value sensitivity ``s``.
    dimension_sensitivity:
        Bounds for each dimension weight ``s[dim]``.
    threshold:
        Bounds for the default tolerance ``v_i``.  Each of these three
        ranges must be finite with ``0 <= lo <= hi``; that is checked
        here, so a segment no provider is drawn from is held to it too.
    headroom:
        Inclusive bounds (in ranks) of how far *above* an anchor policy's
        rank this segment's preferences sit.  Providers currently in the
        system accepted the current policy, so their preferences dominate
        it; the headroom is the slack that later widening eats into.
        Fundamentalists have little slack, the unconcerned plenty.
    """

    name: str
    fraction: float
    tightness: float
    value_sensitivity: tuple[float, float] = (1.0, 3.0)
    dimension_sensitivity: tuple[float, float] = (1.0, 3.0)
    threshold: tuple[float, float] = (10.0, 100.0)
    headroom: tuple[int, int] = (0, 2)

    def __post_init__(self) -> None:
        check_non_empty_str(self.name, "name")
        fraction = check_real(self.fraction, "fraction", minimum=0.0)
        if fraction > 1.0:
            raise SimulationError(f"segment fraction must be <= 1, got {fraction}")
        tightness = check_real(self.tightness, "tightness", minimum=0.0)
        if tightness > 1.0:
            raise SimulationError(f"tightness must be <= 1, got {tightness}")
        lo, hi = self.headroom
        check_int(lo, "headroom low", minimum=0)
        check_int(hi, "headroom high", minimum=lo)
        check_range(self.value_sensitivity, "value_range")
        check_range(self.dimension_sensitivity, "weight_range")
        check_range(self.threshold, "threshold_range")


def standard_segments() -> tuple[WestinSegment, ...]:
    """The canonical three Westin segments with calibrated dispositions.

    * **Fundamentalists** (~25%): tight preferences, high sensitivities,
      low tolerance — they are violated easily and default quickly.
    * **Pragmatists** (~57%): middling everything.
    * **Unconcerned** (~18%): loose preferences, low sensitivities, very
      high tolerance — they rarely default.
    """
    return (
        WestinSegment(
            name="fundamentalist",
            fraction=0.25,
            tightness=0.7,
            value_sensitivity=(2.0, 4.0),
            dimension_sensitivity=(2.0, 5.0),
            threshold=(5.0, 40.0),
            headroom=(0, 0),
        ),
        WestinSegment(
            name="pragmatist",
            fraction=0.57,
            tightness=0.4,
            value_sensitivity=(1.0, 3.0),
            dimension_sensitivity=(1.0, 3.0),
            threshold=(30.0, 150.0),
            headroom=(0, 2),
        ),
        WestinSegment(
            name="unconcerned",
            fraction=0.18,
            tightness=0.1,
            value_sensitivity=(0.5, 1.5),
            dimension_sensitivity=(0.5, 1.5),
            threshold=(150.0, 600.0),
            headroom=(1, 4),
        ),
    )


@dataclass(frozen=True)
class PopulationSpec:
    """Everything needed to synthesise a population.

    Parameters
    ----------
    taxonomy:
        Supplies ladders and the purpose vocabulary.
    attributes:
        Attribute name -> social sensitivity ``Sigma^a``.
    purposes:
        The purposes providers will express preferences for.  Defaults to
        every purpose in the taxonomy.
    n_providers:
        Population size.
    segments:
        The Westin segments; fractions must sum to 1 (within 1e-9).
    seed:
        Seed for the NumPy generator.
    id_prefix:
        Generated providers are named ``f"{id_prefix}{index}"``.
    anchor_policy:
        When given, preferences for the (attribute, purpose) pairs the
        policy covers are drawn *at or above* the policy's ranks (policy
        rank + segment headroom) — modelling Section 9's premise that the
        current providers accepted the current policy, so the baseline
        causes no violations and defaults only appear as widening eats
        through the headroom.  Pairs the policy does not cover fall back
        to the segment's tightness sampler.
    """

    taxonomy: Taxonomy
    attributes: Mapping[str, float]
    n_providers: int
    purposes: Sequence[str] | None = None
    segments: tuple[WestinSegment, ...] = field(default_factory=standard_segments)
    seed: int = 0
    id_prefix: str = "provider-"
    anchor_policy: HousePolicy | None = None

    def __post_init__(self) -> None:
        check_int(self.n_providers, "n_providers", minimum=1)
        check_int(self.seed, "seed", minimum=0)
        if not self.attributes:
            raise SimulationError("a population spec needs at least one attribute")
        total = sum(segment.fraction for segment in self.segments)
        if abs(total - 1.0) > 1e-9:
            raise SimulationError(
                f"segment fractions must sum to 1, got {total}"
            )
        for purpose in self.purposes or ():
            self.taxonomy.purposes.validate(purpose)

    def effective_purposes(self) -> tuple[str, ...]:
        """The purposes preferences are generated for."""
        if self.purposes is not None:
            return tuple(self.purposes)
        return tuple(self.taxonomy.purposes)


def generate_population(spec: PopulationSpec) -> Population:
    """Synthesise a deterministic population from *spec*.

    Each provider gets, per attribute and per purpose, one explicit
    preference tuple (anchored above the anchor policy when one is given,
    otherwise drawn by segment tightness), one per-attribute sensitivity
    record, and one default threshold.  Segment assignment is an exact
    quota allocation (largest-remainder) followed by a seeded shuffle, so
    the realised segment mix matches the spec's fractions as closely as
    integer counts allow — a property the tests assert.

    Per provider and attribute, one broadcast ``rng.integers`` call draws
    the attribute's ranks (see :func:`_draw_plan`) and one
    ``rng.random(4)`` call its sensitivity; one ``rng.random()`` draws the
    threshold.  These consume the generator exactly as one scalar call
    per value would, so a seed gives the same population byte for byte.
    Batching stops at the attribute because PCG64 keeps the spare 32-bit
    half of a word for the next integer draw, across the doubles drawn in
    between.  Equal tuples are built (and validated) once per call and
    shared: they are immutable.
    """
    rng = np.random.default_rng(spec.seed)
    segment_of = _allocate_segments(rng, spec)
    purposes = spec.effective_purposes()
    anchor = _anchor_ranks(spec.anchor_policy)
    plans = [
        _draw_plan(spec, segment, purposes, anchor) for segment in spec.segments
    ]
    shared: dict[tuple[str, int, int, int], PrivacyTuple] = {}
    providers: list[Provider] = []
    for index, segment_index in enumerate(segment_of):
        segment = spec.segments[segment_index]
        provider_id = f"{spec.id_prefix}{index}"
        entries = []
        sensitivity: dict[str, DimensionSensitivity] = {}
        for attribute, lows, highs, caps in plans[segment_index]:
            ranks = np.minimum(rng.integers(lows, highs), caps).tolist()
            for key in zip(purposes, ranks[0::3], ranks[1::3], ranks[2::3]):
                privacy_tuple = shared.get(key)
                if privacy_tuple is None:
                    privacy_tuple = shared[key] = PrivacyTuple(*key)
                entries.append((attribute, privacy_tuple))
            sensitivity[attribute] = sample_dimension_sensitivity(
                rng, segment.value_sensitivity, segment.dimension_sensitivity
            )
        providers.append(
            Provider(
                preferences=ProviderPreferences(provider_id, entries),
                sensitivity=sensitivity,
                threshold=sample_threshold(rng, segment.threshold),
                segment=segment.name,
            )
        )
    return Population(providers, attribute_sensitivities=dict(spec.attributes))


#: The cap of a rank whose ladder has no top (:class:`UnboundedRetention`).
_NO_CAP = np.iinfo(np.int64).max


def _draw_plan(
    spec: PopulationSpec,
    segment: WestinSegment,
    purposes: Sequence[str],
    anchor: Mapping[tuple[str, str], Mapping[Dimension, int]],
) -> list[tuple[str, np.ndarray, np.ndarray, np.ndarray]]:
    """One segment's ``(attribute, lows, highs, caps)`` per attribute.

    The vectors run over the attribute's 3·|purposes| ranks, purpose by
    purpose and V, G, R within each, and a rank is
    ``min(integers(low, high), cap)``:

    * a pair the anchor covers is its anchor rank plus a headroom in
      ``[lo, hi]``, capped at the ladder top (uncapped on an
      :class:`~repro.core.dimensions.UnboundedRetention` ladder); the
      anchor rank shifts both bounds, which draws what adding it after
      the draw would;
    * any other pair is drawn in ``[0, ceiling]``, the ceiling from
      :func:`~repro.simulation.sampling.preference_ceilings`.
    """
    tops = [spec.taxonomy.domain(dim).max_rank for dim in ORDERED_DIMENSIONS]
    ceilings = preference_ceilings(spec.taxonomy, segment.tightness)
    headroom_lo, headroom_hi = segment.headroom
    plan = []
    for attribute in spec.attributes:
        lows: list[int] = []
        highs: list[int] = []
        caps: list[int] = []
        for purpose in purposes:
            base = anchor.get((attribute, purpose))
            for dim, top, ceiling in zip(ORDERED_DIMENSIONS, tops, ceilings):
                if base is None:
                    lows.append(0)
                    highs.append(ceiling + 1)
                    caps.append(ceiling)
                else:
                    lows.append(base[dim] + headroom_lo)
                    highs.append(base[dim] + headroom_hi + 1)
                    caps.append(_NO_CAP if top is None else top)
        plan.append(
            (
                attribute,
                np.array(lows, dtype=np.int64),
                np.array(highs, dtype=np.int64),
                np.array(caps, dtype=np.int64),
            )
        )
    return plan


def _anchor_ranks(
    policy: HousePolicy | None,
) -> dict[tuple[str, str], dict[Dimension, int]]:
    """Per (attribute, purpose), the policy's effective (max) rank per dimension."""
    if policy is None:
        return {}
    ranks: dict[tuple[str, str], dict[Dimension, int]] = {}
    for entry in policy:
        key = (entry.attribute, entry.purpose)
        current = ranks.setdefault(key, {dim: 0 for dim in ORDERED_DIMENSIONS})
        for dim in ORDERED_DIMENSIONS:
            current[dim] = max(current[dim], entry.tuple.rank(dim))
    return ranks


def _allocate_segments(rng: np.random.Generator, spec: PopulationSpec) -> list[int]:
    """Exact largest-remainder quota allocation: each provider's segment index."""
    n = spec.n_providers
    quotas = [segment.fraction * n for segment in spec.segments]
    counts = [int(q) for q in quotas]
    remainder = n - sum(counts)
    by_fraction = sorted(
        range(len(spec.segments)),
        key=lambda i: (quotas[i] - counts[i], -i),
        reverse=True,
    )
    for i in by_fraction[:remainder]:
        counts[i] += 1
    assignment: list[int] = []
    for segment_index, count in enumerate(counts):
        assignment.extend([segment_index] * count)
    rng.shuffle(assignment)
    return assignment
