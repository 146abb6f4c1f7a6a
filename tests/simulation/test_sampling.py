"""Unit tests for the seeded samplers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Dimension
from repro.exceptions import SimulationError
from repro.simulation import (
    sample_dimension_sensitivity,
    sample_preference_tuple,
    sample_threshold,
)
from repro.taxonomy import standard_taxonomy


@pytest.fixture()
def taxonomy():
    return standard_taxonomy(["billing"])


class TestPreferenceSampler:
    def test_tightness_one_pins_at_zero(self, taxonomy):
        rng = np.random.default_rng(0)
        for _ in range(20):
            t = sample_preference_tuple(rng, taxonomy, "billing", 1.0)
            assert (t.visibility, t.granularity, t.retention) == (0, 0, 0)

    def test_tightness_zero_spans_full_ladder(self, taxonomy):
        rng = np.random.default_rng(0)
        seen_v = {
            sample_preference_tuple(rng, taxonomy, "billing", 0.0).visibility
            for _ in range(300)
        }
        assert seen_v == set(range(5))

    def test_ranks_within_domain(self, taxonomy):
        rng = np.random.default_rng(1)
        for tightness in (0.0, 0.3, 0.7, 1.0):
            for _ in range(50):
                t = sample_preference_tuple(rng, taxonomy, "billing", tightness)
                assert 0 <= t.visibility <= 4
                assert 0 <= t.granularity <= 3
                assert 0 <= t.retention <= 4

    def test_purpose_carried(self, taxonomy):
        rng = np.random.default_rng(2)
        t = sample_preference_tuple(rng, taxonomy, "billing", 0.5)
        assert t.purpose == "billing"

    def test_deterministic_given_seed(self, taxonomy):
        a = sample_preference_tuple(
            np.random.default_rng(7), taxonomy, "billing", 0.5
        )
        b = sample_preference_tuple(
            np.random.default_rng(7), taxonomy, "billing", 0.5
        )
        assert a == b

    def test_tightness_above_one_rejected(self, taxonomy):
        with pytest.raises(SimulationError):
            sample_preference_tuple(
                np.random.default_rng(0), taxonomy, "billing", 1.5
            )


class TestSensitivitySampler:
    def test_within_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = sample_dimension_sensitivity(rng, (1.0, 3.0), (0.5, 2.0))
            assert 1.0 <= s.value <= 3.0
            for dim in (
                Dimension.VISIBILITY,
                Dimension.GRANULARITY,
                Dimension.RETENTION,
            ):
                assert 0.5 <= s.dimension_weight(dim) <= 2.0

    def test_degenerate_range(self):
        rng = np.random.default_rng(4)
        s = sample_dimension_sensitivity(rng, (2.0, 2.0), (1.0, 1.0))
        assert s.value == 2.0

    def test_inverted_range_rejected(self):
        with pytest.raises(SimulationError):
            sample_dimension_sensitivity(
                np.random.default_rng(0), (3.0, 1.0), (1.0, 2.0)
            )
        with pytest.raises(SimulationError):
            sample_dimension_sensitivity(
                np.random.default_rng(0), (1.0, 3.0), (2.0, 1.0)
            )


class TestThresholdSampler:
    def test_within_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            assert 10.0 <= sample_threshold(rng, (10.0, 20.0)) <= 20.0

    def test_negative_range_rejected(self):
        with pytest.raises(SimulationError):
            sample_threshold(np.random.default_rng(0), (-1.0, 2.0))

    @pytest.mark.parametrize(
        "bounds", [(0.0, float("inf")), (float("nan"), 2.0)], ids=["inf", "nan"]
    )
    def test_non_finite_range_rejected(self, bounds):
        with pytest.raises(SimulationError, match="invalid threshold_range"):
            sample_threshold(np.random.default_rng(0), bounds)


class TestStreamFacts:
    """NumPy behaviour the batched population generator relies on.

    ``generate_population`` draws each attribute's ranks with one
    broadcast ``integers`` call, an anchor rank folded into both bounds,
    and each uniform value as ``lo + (hi - lo) * random()``; seeded
    populations stay the same only while these equal the scalar calls
    they replaced.
    """

    def test_broadcast_integers_draw_like_scalar_calls(self):
        schedule = np.random.default_rng(2024)
        batched = np.random.default_rng(11)
        scalar = np.random.default_rng(11)
        for _ in range(1000):
            size = int(schedule.integers(1, 16))
            lows = schedule.integers(0, 6, size)
            # About a quarter of the ranges hold a single value.
            widths = schedule.integers(0, 5, size) * (schedule.random(size) > 0.25)
            highs = lows + widths + 1
            bases = schedule.integers(0, 9, size) * (schedule.random(size) > 0.5)
            drawn = batched.integers(bases + lows, bases + highs).tolist()
            expected = [
                int(base) + int(scalar.integers(int(lo), int(hi)))
                for base, lo, hi in zip(bases, lows, highs)
            ]
            assert drawn == expected
            # The spare 32-bit half an integer draw leaves buffered must
            # carry across a double drawn between two batches.
            assert batched.random() == scalar.random()
        assert batched.bit_generator.state == scalar.bit_generator.state

    def test_single_value_ranges_consume_nothing(self):
        rng = np.random.default_rng(5)
        rng.integers(0, 7)  # leave a spare 32-bit half buffered
        before = rng.bit_generator.state
        assert rng.integers([0, 3, 2], [1, 4, 3]).tolist() == [0, 3, 2]
        assert rng.bit_generator.state == before

    def test_affine_random_equals_uniform(self):
        schedule = np.random.default_rng(2025)
        via_random = np.random.default_rng(12)
        via_uniform = np.random.default_rng(12)
        for _ in range(5000):
            lo = float(schedule.uniform(0.0, 500.0))
            hi = lo + float(schedule.uniform(0.0, 500.0)) * bool(
                schedule.integers(0, 4)
            )
            assert lo + (hi - lo) * via_random.random() == via_uniform.uniform(
                lo, hi
            )
            # Four at once, as the sensitivity sampler draws them.
            assert [lo + (hi - lo) * u for u in via_random.random(4).tolist()] == [
                via_uniform.uniform(lo, hi) for _ in range(4)
            ]
            assert via_random.integers(0, 9) == via_uniform.integers(0, 9)
        assert via_random.bit_generator.state == via_uniform.bit_generator.state
